"""Golden CLI documents: each command's JSON pinned by sha256 at orders 4 and 6.

The recursion ladders and the tricolor documents are also pinned at orders
1 and 8, the lowest order and one where every ladder system has stored
rows above its tail-equation row.  Four documents are also pinned as CSV
at order 4, which fixes the row layout and the record order of the CSV
writer.  The ``dimers`` document is pinned at further link counts: 0 and
1 (the segment polynomials of orders 0 and 1), 12, and 5 as CSV.  The
``verify --suite dimers`` document is pinned at orders 1, 2 and 7; at
order 1 its determinant checks carry ``skipped:`` details.

A digest moves when any coefficient, reliable bound, record name or the
layout of a document moves, so a kernel or solver change that is meant to
be invisible must leave every line below passing.  The general family
uses g1 = 1/5, so the rational (non-integer) arithmetic is pinned too.
"""

from __future__ import annotations

import hashlib

import pytest

from bicmaps.cli import main

GENERAL = ["--family", "general", "--g", "1/5,1"]

CASES = {
    "twopoint-quad": ["twopoint", "--family", "quad", "--i-max", "2"],
    "twopoint-hex": ["twopoint", "--family", "hex", "--i-max", "2"],
    "twopoint-general": ["twopoint", *GENERAL, "--i-max", "2"],
    "ladder-quad-recursion": ["ladder", "--family", "quad", "--route", "recursion"],
    "ladder-quad-closed": ["ladder", "--family", "quad", "--route", "closed"],
    "ladder-quad-determinant": ["ladder", "--family", "quad", "--route", "determinant"],
    "ladder-hex-recursion": ["ladder", "--family", "hex", "--route", "recursion"],
    "ladder-hex-closed": ["ladder", "--family", "hex", "--route", "closed"],
    "ladder-hex-determinant": ["ladder", "--family", "hex", "--route", "determinant"],
    "ladder-general-recursion": ["ladder", *GENERAL, "--route", "recursion"],
    "ladder-general-determinant": ["ladder", *GENERAL, "--route", "determinant"],
    "ladder-ternary-recursion": ["ladder", "--family", "ternary", "--route", "recursion"],
    "ladder-ternary-closed": ["ladder", "--family", "ternary", "--route", "closed"],
    "ladder-binary-recursion": ["ladder", "--family", "binary", "--route", "recursion"],
    "ladder-binary-closed": ["ladder", "--family", "binary", "--route", "closed"],
    "ladder-tricolor-recursion": ["ladder", "--family", "tricolor", "--i-max", "2"],
    "hankel-quad": ["hankel", "--family", "quad", "--i-max", "2"],
    "hankel-general": ["hankel", *GENERAL, "--i-max", "2"],
    "dimers": ["dimers", "--links", "4"],
    "tricolor": ["tricolor", "--i-max", "2"],
    "verify-all": ["verify", "--suite", "all", "--seed", "3"],
}

EXTREME_ORDERS = {
    "ladder-quad-recursion",
    "ladder-hex-recursion",
    "ladder-general-recursion",
    "ladder-ternary-recursion",
    "ladder-binary-recursion",
    "ladder-tricolor-recursion",
    "tricolor",
}

GOLDEN = {
    ("twopoint-quad", 4): "f9ed725e2008bd256322fa708b24bbd0f0ccd4785e3b77ed89ad03ae1861a0a4",
    ("twopoint-quad", 6): "4dab5c1ba2e0be164f779ec3f33b9ca1aab1c60050c437d2c23f2ebbbf7b5131",
    ("twopoint-hex", 4): "2af7e0448f07794d41a79f45695341c7d4910b363a81592c9401b15d2f1a52c3",
    ("twopoint-hex", 6): "4b9508063e81e7ed5cb2663cfef9d10379f86bc134ac3077942663016f009f00",
    ("twopoint-general", 4): "1f2743da4dd82dfaa3360680f76fbb1e286451f4b3e652b177252e05bb33eca5",
    ("twopoint-general", 6): "6098b881cd7542cad5344398f456040119c73fa7fd7ff6027b013925a03dd987",
    ("ladder-quad-recursion", 4): "29bb23b8cdb7463c37337016aa6cfd4218fbecfce4a0068688821a0bec2c4e86",
    ("ladder-quad-recursion", 6): "8d10d3baef09e88403121b7db2a597dc277d0df00301fcf9d7d328acc3022b03",
    ("ladder-quad-closed", 4): "12476bf8ac0375b94a0674a84c4857b7988084e9c0a3967ddf102a7116d657ab",
    ("ladder-quad-closed", 6): "9d8221fec7002e82cd3d1d33eec0723d7dda8a85297ccc586644c13624acf747",
    ("ladder-quad-determinant", 4): "8c0aa2d5ab72fdfea9a73ab929aecaff7ee7a66a567a1e86f674900fbf077edc",
    ("ladder-quad-determinant", 6): "249c29a1e002fb352ea8994ef36ca699905bd54f9d63d14f501a7eeb7159e03f",
    ("ladder-hex-recursion", 4): "a598a11cf478add419a7fedefd031197232e13e30774ef801474649d33afa937",
    ("ladder-hex-recursion", 6): "f5a6dff579f107e9a440a8c28bda13539471063c13e3aa5b648db37e55d3c213",
    ("ladder-hex-closed", 4): "e3e54eaad616ec6bcce3f7f62f8a32ad5a5e78f22e883b9ede792112c4c6c8e0",
    ("ladder-hex-closed", 6): "9af1a32c0e9f56e6dbe08817b104cccab95366f424fbe018d3f1a1e06ea96245",
    ("ladder-hex-determinant", 4): "9c367d1be7cd64eba15f222b43542bd76016eee25e0c9a7d6c5865a102275d41",
    ("ladder-hex-determinant", 6): "7be9614b6ae3150bda21f2d878b5af6e00942b34cffa6038d6707f94a510a20a",
    ("ladder-general-recursion", 4): "a58c9ba71b427ef77d5c43bc7728d719d51f2e2f341e17e5088c1834c8e5e4bd",
    ("ladder-general-recursion", 6): "723fdcee47ac58ff65e83866a850c782d160e44052b29980fd9bb47be1ef4bb3",
    ("ladder-general-determinant", 4): "7097f83a90ee56c2ec5e70055ea2d23c014d01f203ae7a3a68dfaf7c73e52b58",
    ("ladder-general-determinant", 6): "0f800af9f7da1f2e200500d6076e5c980baf25617db62a724271d0a8eb878efc",
    ("ladder-ternary-recursion", 4): "f757bc2c726859aac48f96cbb3ea711f98fb56d4358833f59066dfe12a24f079",
    ("ladder-ternary-recursion", 6): "a7bd7d02f6c9e1ec1cecc69ab8973588486c6e64e36604243c001909363e76c7",
    ("ladder-ternary-closed", 4): "5a048abb81fea24622495283440156b44a8c98e4d85f19fb28ad34d578054d34",
    ("ladder-ternary-closed", 6): "f67913e85c86a6b36aa7cecb19e0eebd182f43e6aeef555cad573fa80e2f592e",
    ("ladder-binary-recursion", 4): "6a56abe42eb8696fbbe02473c5f8af1c5d0e72305fd3daf464f8a719c6c45aa7",
    ("ladder-binary-recursion", 6): "59e41b361eeadd53c1728a6426f0f41b5405e5bf4bac7930b14eb01763737796",
    ("ladder-binary-closed", 4): "bab32b141e916d17548c8d63bb426018eb1d5719a493df238a856d53079027c1",
    ("ladder-binary-closed", 6): "81adf966c7884f67919d1cdb4cb819886b4d875e2c94aae3b36780cf35653aba",
    ("ladder-tricolor-recursion", 4): "1cd4f24efb4f9c4eeffc41d76ab8339ee456e7d5c2870f47bf834f4de7641d10",
    ("ladder-tricolor-recursion", 6): "aeb2a4b53558719a7aa4d750452884ab49636584ab522d3b3be3313720987fd9",
    ("hankel-quad", 4): "cb531b21ee3a79c5e1bfdf0a91f741a635bfbf0f90a80b2d8f29ad273eb7310e",
    ("hankel-quad", 6): "65ce760169fe1538a79563a2f0866f50e061802ee95b635b9c89b072b4332736",
    ("hankel-general", 4): "0d0641a108f1e8dda9c429dc2d9a1d9d5939b84921ff99ef1fdd7c0ef7ce16fe",
    ("hankel-general", 6): "002909729c7ddb101e86ae8a3c9fffeead24a59b9f88029db9982a81291aefcb",
    ("dimers", 4): "dcd09e4ba6a63e2ec6d071c4b368af789852678d46c2677ebf9773360977ebe8",
    ("dimers", 6): "da978b21f4e53c372c24c2f795b38fdc231c3efcd4c8f789b98eebbe85bce2e4",
    ("tricolor", 4): "65800c85c905cf066f657e7344a0d36f86a1ef02e0c354a545928f852b41d215",
    ("tricolor", 6): "a7ac0d8f07cd189423f9aaeaa05bc6f07bcbdacf2489213fd921ec0d5dbd6176",
    ("verify-all", 4): "9997f2850c0240d3aed923d8110f792a809a32016f747e7f56075418250afd78",
    ("verify-all", 6): "993468dfad854e813512a6c6de7be780a03c8a7a877080a4275e340b8972f4a6",
    ("ladder-quad-recursion", 1): "c819bb447c1150647f4c82a3e0eda7bba692f4cfa3536a4c0f0c90537bf76161",
    ("ladder-quad-recursion", 8): "2f014d140390276e0c8e72045f87d6a8acdb67a7ee3cfb6feeda266e545d9c76",
    ("ladder-hex-recursion", 1): "a53fbee07c2b614cc4c22f485f92711e50652204ec2c5ef196d3d51e1b2797ed",
    ("ladder-hex-recursion", 8): "20ae0c4f2ece2adb14d29a0968b24acf90cc8fc1873ee4772f3dbf720c32c15e",
    ("ladder-general-recursion", 1): "e7d91ec665d41a584c05bba2c726109192486e93fe4c424d2aa93a254e704c48",
    ("ladder-general-recursion", 8): "038d6a65192fe287911fa934b698dc2ed2fcee15b805e4283eb2e0373ffdb43f",
    ("ladder-ternary-recursion", 1): "50809f9c809f327e63aa90d9d1a00a316c280cf8a6055e54816d20b623954f71",
    ("ladder-ternary-recursion", 8): "05128ac990fda8fcfb6a1b40d4de5e648f26badd98e342cb5db5da6ca597407a",
    ("ladder-binary-recursion", 1): "f4edc43dbeb5f1895318db3a74fb99359ee54c8cdaecae4a0f214ee306a7a03b",
    ("ladder-binary-recursion", 8): "c90fcb482615e530d3383058bb943e5a1c4acdf5d12daf2a4b4090a01aa35711",
    ("ladder-tricolor-recursion", 1): "873ba8cc7ebfc974a44d7f9990811b081eb820e746db6e2a02244b6d69ccc97b",
    ("ladder-tricolor-recursion", 8): "6fdf5dc6902eb55a729c63502a54f2d7ef4409416dec99efc4dc6b3cb71b55b2",
    ("tricolor", 1): "ca774196c38303e3db20310bcd63ce07ac4a5321480a9cd7d8f683c158423f8f",
    ("tricolor", 8): "4ef3c3be7d7911197dcadc555c607eb28085f318938a09fb2e7b2ba24f1195b8",
}

CSV_GOLDEN = {
    "twopoint-quad": "5af3da18316a897909c6335103c54b3dce7a10ae2b2b2e7e216f623fa17dd988",
    "ladder-ternary-closed": "2b9824c24d16e8f41e1c8256dc026bee7ad86f57811c387e104319301c88e5f4",
    "ladder-general-determinant": (
        "f497255d6633db339d701bcb84846fd73f7a8e9ef768fff5cb5522793172a7c3"
    ),
    "tricolor": "a59b17399985ea9ce106a888aa93f79cdbab21958a4ce1d0441769934ed3d12a",
}

DIMERS_GOLDEN = {
    ("0", "json"): "17b1f0d9a475b1cfbba89b6aafc363dd9e537bc53278c28446334754680712a4",
    ("1", "json"): "a35a7306229426537e6ba3a29a50f0eb6b306e77e261e36c1aa69f63cb7740a9",
    ("12", "json"): "ae3d2b6d137e3a024b1a4cbf77afe66fc060de54db21accb26bbbc3efc228bfb",
    ("5", "csv"): "946bae4880a7234baf53bef3bfae35011edeaf915f4518a3b16e3453605aba3f",
}

VERIFY_DIMERS_GOLDEN = {
    1: "7521c2d873b62bcd5b0d3ca1f5b967e4b333e5c6bae21db99554f478a0af6205",
    2: "e3650c05ac5ea495add5d73c838b0ff943190c9d88d9603244f63994c1dbc1cb",
    7: "90a357e79627c835583f238ac82b04669e69a7e9ed97e192ab398941b6288c50",
}


def document_digest(capsys, argv) -> str:
    code = main(argv)
    assert code == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_case_is_pinned_at_both_orders():
    assert set(GOLDEN) == {(name, order) for name in CASES for order in (4, 6)} | {
        (name, order) for name in EXTREME_ORDERS for order in (1, 8)
    }


@pytest.mark.parametrize("name,order", sorted(GOLDEN))
def test_golden_document(capsys, name, order):
    digest = document_digest(capsys, CASES[name] + ["--order", str(order)])
    assert digest == GOLDEN[name, order], f"{name} at order {order} changed"


@pytest.mark.parametrize("name", sorted(CSV_GOLDEN))
def test_golden_csv_document(capsys, name):
    digest = document_digest(capsys, CASES[name] + ["--order", "4", "--format", "csv"])
    assert digest == CSV_GOLDEN[name], f"{name} CSV at order 4 changed"


@pytest.mark.parametrize("links,fmt", sorted(DIMERS_GOLDEN))
def test_golden_dimers_document(capsys, links, fmt):
    argv = ["dimers", "--links", links, "--order", "4", "--format", fmt]
    digest = document_digest(capsys, argv)
    assert digest == DIMERS_GOLDEN[links, fmt], f"dimers --links {links} as {fmt} changed"


@pytest.mark.parametrize("order", sorted(VERIFY_DIMERS_GOLDEN))
def test_golden_verify_dimers_document(capsys, order):
    argv = ["verify", "--suite", "dimers", "--seed", "1", "--order", str(order)]
    digest = document_digest(capsys, argv)
    assert digest == VERIFY_DIMERS_GOLDEN[order], f"verify --suite dimers at order {order} changed"
