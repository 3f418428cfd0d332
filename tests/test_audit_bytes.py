"""The exact bytes of lp audits: the sha256 of cli.audit_report_json for a fixed grid, so that a change of any
last digit fails tier-1 and an intended change is a diff of AUDIT_SHA256.

The grid covers tables of one cache block, tables past one block (f's values as two half transforms), lin f
streamed in several blocks, and m = 1, in linf, l1 and l2 at the default ell.  Audits at p outside {1, 2, inf}
and at a non-default ell are left out: their |x|^p and the proxy's kernel sums go through numpy's SIMD loops,
whose last bits depend on the CPU features numpy dispatches to.

Run ``PYTHONPATH=src python tests/test_audit_bytes.py`` to print the table again from the code as it is.
"""

import hashlib

import pytest

from pisier_lab import cli

# (n, m) -> the norms each is audited in at seed 0: 30 audits in well under a second
AUDIT_GRID = {
    (1, 1): ("linf", "l1", "l2"),
    (2, 3): ("linf", "l1", "l2"),
    (6, 3): ("linf", "l1", "l2"),
    (9, 5): ("linf", "l1", "l2"),
    (10, 2): ("linf", "l1", "l2"),
    (13, 1): ("linf", "l1", "l2"),
    (12, 32): ("linf", "l1", "l2"),
    (18, 1): ("linf", "l1", "l2"),
    (15, 9): ("linf", "l1"),
    (16, 16): ("linf", "l1"),
    (16, 64): ("linf", "l2"),
}

AUDIT_SHA256 = {
    (1, 1, "linf"): "84e2cecccf28441b4e2c1041eaed8c61782f9cfb057b0d28d0f89dde82fad6a6",
    (1, 1, "l1"): "bc7c515ee0194f89a1b426b92d6482462925df1a8fed7d8770a70fe301b1d7c7",
    (1, 1, "l2"): "f11820370a23fbb77da9b3fd8cbf3878e8154cc1bf33f27445aa5b262c478717",
    (2, 3, "linf"): "8e4fad7597a9cc10a2730992d2302ea669817cb76de664da2e6bcea43c4dc5fd",
    (2, 3, "l1"): "afa60f3de2ddc07d4cd963e4e38ef0bcbd2975d352954166d3dd44a2202d99d1",
    (2, 3, "l2"): "db0cc72e0b05818a5a331794ece0bf4c3835d161ebec10ebe353b270701aab37",
    (6, 3, "linf"): "86d02939f8a8670293c5124f8cbca383c348a3ae467195a32d417351ee9853b1",
    (6, 3, "l1"): "c04fa6b5671e2dc7d38fb4dc1a60c95bc133533a3c68e84f6fdf2525e463e955",
    (6, 3, "l2"): "20873c9f2d51ecc011f725b457381200626dbbd962d09d7506a68e9cddc6ff5d",
    (9, 5, "linf"): "c02c534008418f7cfe510867ce73a7f6416dd2284dfbff4d491b6e29faab0376",
    (9, 5, "l1"): "4e47408ac04a6982360eec5fad75663cacb722047ec376d8f077b96ba648adec",
    (9, 5, "l2"): "196adebdc137c6655c330cfb8bc3fda44669bc4111fe647523441e9a45e4fb67",
    (10, 2, "linf"): "125b9a518002e9e9bdf63e8d0c979ef6c634a4ebca3e0bfcb0eb1d4c361a2900",
    (10, 2, "l1"): "18f17996eaa603c0327d20015dc9c838d7bf6025f90a5dc471c40f777936560f",
    (10, 2, "l2"): "aec2283e6872d0eb23bf8c4730031eed58703f0f9d8e982ecd20d2598e02571e",
    (13, 1, "linf"): "2a0f509839948f08834306a08ea9469a40fe2d53c44006e74e732810a8eba3d8",
    (13, 1, "l1"): "191183a8fcb8379a5bdd64a9394880bdaf6976c877a279698263732ee7ea36ce",
    (13, 1, "l2"): "5b8b6b2528d8f8cbfaec7deb626c01691eaa9ab4d8fce3cf2d4a3ca4e0ee61b4",
    (12, 32, "linf"): "4a65782447431167ab6a3fcb31c548eef123643f83dbfd8e3d7e00f36cbcd93e",
    (12, 32, "l1"): "770aa972f86ec7fa716c1d044fec19665c579a0395fc69ec4ed7a2c3baf6a972",
    (12, 32, "l2"): "158e8896605577b4f1700545f5e0264c96c1da6547d40c880c2f46655e7e22d3",
    (18, 1, "linf"): "c0e51638a45f971f4816d2d1eb2362e7bb1873be1770238433d2c5e82a2f83e9",
    (18, 1, "l1"): "b0127fa6d651d3f486ee94fdd64136df8f9b64579104ecc74627439c2653f0b3",
    (18, 1, "l2"): "44df311e3637b792c9f67748183de73c125a9eaf59aa7bb32caf6038283e7dcc",
    (15, 9, "linf"): "a0465dbe0092d80b0a3c2fa7965efdebd1569f6137ea24ca66824ba18d7ab122",
    (15, 9, "l1"): "fa988af9b937f826ff818520e75229be5dd07af3633426d4ee9ef1292b74689a",
    (16, 16, "linf"): "f6e097fcad3b5867f506600bc72a67b0992bcad667e8ac1159391c03ec8ce230",
    (16, 16, "l1"): "ce7f03e97695c9677b5a5c77f7ff821148b658bd2cb6cd1d70e8a66bef6b0d2b",
    (16, 64, "linf"): "affb895b2fad0ab17dd07525faf7cf07c8e71f7067b13aea25004044fd97c0c4",
    (16, 64, "l2"): "62cf21c0eb9c8963e9241bca89fecfca38ecf14f555bb232b40ff16846e4fcfb",
}


def audit_digest(n: int, m: int, norm: str) -> str:
    return hashlib.sha256(cli.audit_report_json(n, m, norm, 0).encode()).hexdigest()


def test_the_grid_is_pinned():
    assert [(n, m, norm) for (n, m), norms in AUDIT_GRID.items() for norm in norms] == list(AUDIT_SHA256)
    assert len(AUDIT_SHA256) == 30


@pytest.mark.parametrize(("n", "m", "norm"), list(AUDIT_SHA256))
def test_audit_json_keeps_its_bytes(n, m, norm):
    assert audit_digest(n, m, norm) == AUDIT_SHA256[n, m, norm]


if __name__ == "__main__":
    print("AUDIT_SHA256 = {")
    for (n, m), norms in AUDIT_GRID.items():
        for norm in norms:
            print(f'    ({n}, {m}, "{norm}"): "{audit_digest(n, m, norm)}",')
    print("}")
