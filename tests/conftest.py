import os
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))

# The checkout's own sources come first, unless a PYTHONPATH entry holds an
# lvalley package: then that tree is the one under test.
_PATH = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if not any(entry and (Path(entry) / "lvalley" / "__init__.py").is_file() for entry in _PATH):
    sys.path.insert(0, str(TESTS.parent / "src"))


def pytest_report_header(config):
    import lvalley

    return f"lvalley {lvalley.__version__} from {Path(lvalley.__file__).resolve().parent}"
