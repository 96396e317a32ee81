"""Byte-identity gate: every `vertexcalc construct` output on the shipped fixtures.

Each fixture is built with every kind: from-assoc, twist, cross, tensor (on
its own and with a3) and matrix (-n 2 and 3).  A build that succeeds pins
the sha256 of the file it writes; one that exits 2 pins its error line.
The digests were recorded before the builders moved onto the sparse kernel
(constant_index, exp_sparse, sparse columns), and a refactor must leave
every one unchanged.
"""

import hashlib
from pathlib import Path

import pytest

from vertexcalc import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PINNED = {
    "cross a2_base": "0f0ac7852701a6a75ac9d7253e7441b0d71aa36e10f02abded1c5cdbbeba7b24",
    "cross a3": "exit 2: error: cross needs a group section",
    "cross cross_a2z2": "exit 2: error: the action matrix of e is not 4x4",
    "cross m2a3": "exit 2: error: cross needs a group section",
    "cross ut2": "exit 2: error: cross needs a group section",
    "cross z22_base": "exit 2: error: cross needs a group section",
    "cross z22_twist": "exit 2: error: cross needs a group section",
    "from-assoc a2_base": "ea223421c42c0acefc0edf971e4d4e6f2d1360493a0a3999123ba293814b1c21",
    "from-assoc a3": "65d5a201db0c5412e6488dc3ea6cec79279f06a12ad4a12c47e32f466b3a9938",
    "from-assoc cross_a2z2": "exit 2: error: from-assoc needs an 'assoc' section in the input",
    "from-assoc m2a3": "exit 2: error: from-assoc needs an 'assoc' section in the input",
    "from-assoc ut2": "cdd41c3c530f429b2a3e3f8c7a81e25b23d2201f89c6962c3ae50c0799071978",
    "from-assoc z22_base": "exit 2: error: from-assoc needs an 'assoc' section in the input",
    "from-assoc z22_twist": "exit 2: error: from-assoc needs an 'assoc' section in the input",
    "matrix a2_base -n 2": "78e691b4e506b423468743ef846f4893f9f0f9cc46c300f293979ee85988e14b",
    "matrix a2_base -n 3": "7e7b9b88a917c407ddbd45ea307567d5b63033fd0012df2ffc8e2b392985fd69",
    "matrix a3 -n 2": "da39f6c50be37665d81828f410d91e9c92129a20535d764f957d9eead0c58338",
    "matrix a3 -n 3": "522db35e57eabd3425a233607f8e2560e8ab237519978d1c1d21dd2dc9373d98",
    "matrix cross_a2z2 -n 2": "120dc3acb0018065ef9b5393a3f28ee6fca37d11891d077ab1e5d3a2344120fc",
    "matrix cross_a2z2 -n 3": "17884465c4d71bfe0c5d4b2b2662477d729bb7ce2d9be259c21b2f5a94063773",
    "matrix m2a3 -n 2": "1c1f24dc4f401414ad3b1beff15a197112befef1636f1d48e9b0fabf512b0b3c",
    "matrix m2a3 -n 3": "8ad2842da991bcd0dbc333a314a3092447a309d015e2f01d625753b01ea9c5d2",
    "matrix ut2 -n 2": "4f2422bf423eb593b37db1065b0bcd8608722ecfb6a205354763d5b2646fcfe0",
    "matrix ut2 -n 3": "eb7269c72912684ca3b2a104d4adcc1daacd59c8847cebcca9accbec9a3e80f7",
    "matrix z22_base -n 2": "d8122c91a63cad430ca8af79fa424ffbf34a276dd412ce39d3cdde95ff2982d0",
    "matrix z22_base -n 3": "d806925332957a39528ad77cab8120dfaa5dd5eddb8168d017c5f5254b4aeaa2",
    "matrix z22_twist -n 2": "043c41afbc25af6e69ce94f8f77ee47af52ec2efe63f855281389cdb422df56a",
    "matrix z22_twist -n 3": "b172dae3793453fec8d1f98f7add3821192986e00ef85fe406413250c55e7e7e",
    "tensor a2_base": "ea223421c42c0acefc0edf971e4d4e6f2d1360493a0a3999123ba293814b1c21",
    "tensor a2_base a3": "3b23ce4a6e7f97dd5104b8ffc9d6d11e3fe35b10f2f7ea01bdb05898d390a77f",
    "tensor a3": "65d5a201db0c5412e6488dc3ea6cec79279f06a12ad4a12c47e32f466b3a9938",
    "tensor a3 a3": "83063938a86048f839edba672bdd83a3aafc54c4b86a728eb48e822eaee86193",
    "tensor cross_a2z2": "addd51c23324fe854a059671c8c18231ab8c9ace9d1ed4eb46ba5073e41b3e8e",
    "tensor cross_a2z2 a3": "8866d6358baadec6ee3b8b1824cc15bb1abf519e0607e43f62cdb3a816fda4b0",
    "tensor m2a3": "81aa01d408bf066857d0a28133b495a11e2e8f0153aea902dca32b37f63d8e54",
    "tensor m2a3 a3": "37228a1f82266b668312d2abc34cd2ffa690568c08fc9d9b6d79190769bf15f6",
    "tensor ut2": "cdd41c3c530f429b2a3e3f8c7a81e25b23d2201f89c6962c3ae50c0799071978",
    "tensor ut2 a3": "2fd4af7ffe109961921efb467ecfc7ca56b8b44892632b73149a76ebb5dd14b9",
    "tensor z22_base": "9838631b43c8dc1a075c040be2efe524b3c35241adf1884d2e2f2d1c46b9b009",
    "tensor z22_base a3": "a032d6f94a3b512713446bcb39871c6ddf3f5540f586c8f84e76ccf7ac97ec79",
    "tensor z22_twist": "ce603964e63f9552da7ed55249ba560a82a1a64c2cd151fb318a519541a7b1f1",
    "tensor z22_twist a3": "a8d6eb4c3d1868f993ce653da134b6cc7b43e77fa5a29d2fa0d2d37f6beb88f6",
    "twist a2_base": "exit 2: error: twist needs grading and cocycle sections",
    "twist a3": "exit 2: error: twist needs grading and cocycle sections",
    "twist cross_a2z2": "exit 2: error: twist needs grading and cocycle sections",
    "twist m2a3": "exit 2: error: twist needs grading and cocycle sections",
    "twist ut2": "exit 2: error: twist needs grading and cocycle sections",
    "twist z22_base": "b18b753d7ccd0c8b06e769457af1a0343522a3d9e7fd9997af8d3ed813d3b394",
    "twist z22_twist": "5a5b32001533fd718127af4f8ac8e6b7c812f351f44bd3d52fd4228761bbdd85",
}


def test_every_fixture_is_built_with_every_kind():
    fixtures = sorted(p.stem for p in FIXTURES.glob("*.json"))
    kinds = ["cross", "from-assoc", "matrix", "tensor", "twist"]
    for name in fixtures:
        built = sorted(key.split()[0] for key in PINNED if key.split()[1] == name)
        assert built == ["cross", "from-assoc", "matrix", "matrix", "tensor", "tensor", "twist"]
    assert sorted({key.split()[0] for key in PINNED}) == kinds


@pytest.mark.parametrize("build", sorted(PINNED))
def test_construct_output_is_byte_identical(build, tmp_path, capsys):
    kind, *names = build.split()
    size = []
    if "-n" in names:
        size = ["-n", names.pop()]
        names.pop()
    out = tmp_path / "built.json"
    inputs = [str(FIXTURES / f"{name}.json") for name in names]
    code = cli.main(["construct", kind, *inputs, *size, "-o", str(out)])
    captured = capsys.readouterr()
    assert captured.out == ""
    if code == 0:
        assert captured.err == ""
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[build]
    else:
        assert f"exit {code}: {captured.err.strip()}" == PINNED[build]
        assert not out.exists()
