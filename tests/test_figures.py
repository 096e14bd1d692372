"""Golden digests of the data sweep behind every figure.

Each figure id is run in-process through ``cli.run`` in both output
formats, once with the default parameters and once with the fischetti1996
deformation potentials and ``quadratic.d_L1 = -20``, and the sha256 of its
output is compared with the table below: 9 ids x 2 formats x 2 parameter
sets = 36 outputs.  Refactors and speed-ups must leave every byte of them
unchanged.  A change that moves printed digits on purpose (a closed form in
place of a solver, say) updates the table and says so in CHANGES.md, with
the size of the move and its reason.
"""

import contextlib
import hashlib
import io

import pytest

from lvalley.cli import FIGURES, run

PARAMETER_SETS = {
    "default": [],
    "fischetti": ["--dp-set", "fischetti1996", "--set", "quadratic.d_L1=-20"],
}

DIGESTS = {
    ("fig1", "csv", "default"): "4df44ef20b3123d42787880b05009e28a443b1cfea999a48ce6df023c62f1d80",
    ("fig1", "json-lines", "default"): "8b56e14e0f177a862737a3599cdd0f81969ec768782ebeab0ee884a284a41266",
    ("fig2", "csv", "default"): "e2ffb237a384d8b9ea35f780e236ca8ee059a767b02ba55464a303c9b1e30b2e",
    ("fig2", "json-lines", "default"): "3f3dd1e128f38166f35d8febbee7dd735bc205cffdac8858b2b5909e1345300f",
    ("fig3", "csv", "default"): "1b50aaab484aade11d4d4e53d8fac9f1286f813de21a934a7ee6da9841d87b8c",
    ("fig3", "json-lines", "default"): "f0b47384203d81bcd561497ad0822010c18967649c0dc1c5fee7f59a64344ec1",
    ("fig4", "csv", "default"): "b2a88362229139c8fc1f5765db1f2d06ac5bb177c1946c66d185caca231514ac",
    ("fig4", "json-lines", "default"): "e23f05f8f48c19412d71c166cd76c8f2d50f1d3bfebb8dd5f1378d5779678510",
    ("fig5", "csv", "default"): "b2a88362229139c8fc1f5765db1f2d06ac5bb177c1946c66d185caca231514ac",
    ("fig5", "json-lines", "default"): "e23f05f8f48c19412d71c166cd76c8f2d50f1d3bfebb8dd5f1378d5779678510",
    ("fig7", "csv", "default"): "172449c9f499a6259993b4831676c25253d7548db26581c6e8b78c69d79f03ee",
    ("fig7", "json-lines", "default"): "8d5dac38e81ef9532322cf758be98884e6ab8a48d47a62d7b291bd2368354db0",
    ("fig8", "csv", "default"): "f9cddf634f2f6f8be9277c661db34f70a14a5fd49c68beebc1551abe867d1fa3",
    ("fig8", "json-lines", "default"): "8466b27ada2097dde7b93154a2717ff37fe397461ba9e979110abceaa4951edd",
    ("fig9", "csv", "default"): "4225748cc1b793ded9514afd01c431e36d382a23fb8cc8f40dfaca870b00355c",
    ("fig9", "json-lines", "default"): "8e1fe35b14e03c5faa887800b34ebfb127be8e6fb8a6a09b80e3c822b8607fee",
    ("fig10", "csv", "default"): "f95dacaeaa7bcc83172206e9c5f688cfb117d6da5363ca0aa5f1648c178e0f65",
    ("fig10", "json-lines", "default"): "0ed2f559a93cf3d346ff649c2fa45b0af2ad55bd5babe8fac89e4fc53b210c35",
    ("fig1", "csv", "fischetti"): "4df44ef20b3123d42787880b05009e28a443b1cfea999a48ce6df023c62f1d80",
    ("fig1", "json-lines", "fischetti"): "8b56e14e0f177a862737a3599cdd0f81969ec768782ebeab0ee884a284a41266",
    ("fig2", "csv", "fischetti"): "4d10fdf17c08a5d3f98e3bcb8cff0307f26636c132792a0c466353b4940cfc21",
    ("fig2", "json-lines", "fischetti"): "57f62f1c774e18f529ede2e5b67d08ae51ad05027b21083f268237dd860f5bf6",
    ("fig3", "csv", "fischetti"): "aecc13ca12ef0f69a20494421ce3b432a3c546e97b9d5bb74078965ca290befb",
    ("fig3", "json-lines", "fischetti"): "4a6775b9e2344d74896254d8b3031efd37d54ce321bd7a929b4a57da539e974d",
    ("fig4", "csv", "fischetti"): "b4d77ec7029985d30e8b4d452fbba24a3b67b672a2282728ec61c713ec7e7b8d",
    ("fig4", "json-lines", "fischetti"): "c2661f53a31c68434d84f3eb0d7ce9afee9b876763398bc55822f8776d5c5cba",
    ("fig5", "csv", "fischetti"): "b4d77ec7029985d30e8b4d452fbba24a3b67b672a2282728ec61c713ec7e7b8d",
    ("fig5", "json-lines", "fischetti"): "c2661f53a31c68434d84f3eb0d7ce9afee9b876763398bc55822f8776d5c5cba",
    ("fig7", "csv", "fischetti"): "172449c9f499a6259993b4831676c25253d7548db26581c6e8b78c69d79f03ee",
    ("fig7", "json-lines", "fischetti"): "8d5dac38e81ef9532322cf758be98884e6ab8a48d47a62d7b291bd2368354db0",
    ("fig8", "csv", "fischetti"): "563e1c9518088647004bcf2a0a418337e7c3763cb193939f69cad30d19b4d47f",
    ("fig8", "json-lines", "fischetti"): "f9874d70874cf3b8f1177a477bc82b449981b8a9a52d1b4859587804075424e1",
    ("fig9", "csv", "fischetti"): "4120d3ea6881ed5dafea1c7652a324dae47f634ba70f04c283a99cbf32f314a8",
    ("fig9", "json-lines", "fischetti"): "df5a2e140e4dd5313bb93fa239295a5f19d18bd4f211830012a2fdf983c48c54",
    ("fig10", "csv", "fischetti"): "b47e5064e1ae916a8b69dec786081fea84f8ffe0faa3ee63380020a41930f894",
    ("fig10", "json-lines", "fischetti"): "0891952122273ac78be34c1ac48bf7bbe2c4f85bb13063c67d1f5b604994b64f",
}


def test_table_covers_every_figure():
    assert set(DIGESTS) == {
        (fid, fmt, name)
        for fid in FIGURES
        for fmt in ("csv", "json-lines")
        for name in PARAMETER_SETS
    }


@pytest.mark.parametrize("fid,fmt,name", sorted(DIGESTS))
def test_figure_output_is_byte_identical(fid, fmt, name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(["figure", "--id", fid, "--format", fmt, "--out", "-", *PARAMETER_SETS[name]])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == DIGESTS[fid, fmt, name]
