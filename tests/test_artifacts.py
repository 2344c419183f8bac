"""Byte-level gate on CLI artifacts.

Each pinned value is an exit code and the sha256 of an artifact's bytes, so
any change to a join or meet table, a cover list, a witness or the rendering
of one of these artifacts shows up as a changed digest.  Re-record a digest
only for an intended change of output.
"""

import hashlib
from pathlib import Path

from relconvex.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GROUNDS = ["collinear4", "unit_square"]
CHECKS = ["jsd", "lb", "biatomic", "antiexchange", "weakatom", "m3"]


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _digest(code: int, text: str) -> str:
    return f"{code}:{hashlib.sha256(text.encode()).hexdigest()}"


def artifact_digests(tmp_path: Path, capsys) -> dict[str, str]:
    """Exit code and sha256 of every pinned artifact, keyed by a short name."""
    out = {}
    for ground in GROUNDS:
        path = FIXTURES / f"{ground}.json"
        for fmt in ["json", "dot", "csv"]:
            code, text, _ = _run(capsys, "build", "--input", path, "--format", fmt, "--tables")
            out[f"build {ground} {fmt}"] = _digest(code, text)
        built = tmp_path / f"{ground}_lattice.json"
        _, text, _ = _run(capsys, "build", "--input", path)
        built.write_text(text)
        code, text, _ = _run(capsys, "check", "lb", "--input", built)
        out[f"check lb built {ground}"] = _digest(code, text)
    for prop in CHECKS:
        code, text, err = _run(capsys, "check", prop, "--input", FIXTURES / "m3_lattice.json")
        out[f"check {prop} m3_lattice"] = _digest(code, text + err)
    embed_dir = tmp_path / "embed"
    code, _, _ = _run(capsys, "--out-dir", embed_dir, "embed", "--n", "2", "--format", "dot")
    for f in sorted(embed_dir.iterdir()):
        out[f"embed n2 {f.name}"] = _digest(code, f.read_text())
    return out


PINNED = {
    "build collinear4 json":
        "0:c4bc893123549ed765a1c461d7512880e3b6f0dabea308253a0fea0b80d589bd",
    "build collinear4 dot":
        "0:705428c42dcd36828a34bd06717707b0bec4b4d0c8aea8f90214402f6366003b",
    "build collinear4 csv":
        "0:e9b5ae017d7524fe2e2826d43da2f561a7b6d5313c7ee70cbf071f4b61a4cdb3",
    "check lb built collinear4":
        "3:5e31c8976f75158cfe90df10f3ef4bbf7589b6bb70dcba8757ccaf8484a7a598",
    "build unit_square json":
        "0:6dfa0ab423061503afe515f02fbef2d564d77a911e55910d3edeb1a9fdfc60bc",
    "build unit_square dot":
        "0:27aac0746c61c8e33dca4c66525c905d6e7d5473bfb74c472f7e801c2a097889",
    "build unit_square csv":
        "0:5243e0266fc7a28fb295221620bdb14cc4c25255e3b60031a53e61d6ef990490",
    "check lb built unit_square":
        "0:6c16bff92da6f54c4d06b8f047d8f8fe34741ae93495feb2e4f830637712b5c8",
    "check jsd m3_lattice":
        "3:33fb9a914840c5756cf98b739b8899129e53093021aa63f02981cc34895aeddd",
    "check lb m3_lattice":
        "3:3021728ae8d167a1a43de4aff19c7d3b3d6d987bb722fd5a2096d1bf4f7ad631",
    "check biatomic m3_lattice":
        "0:c8acfb0a229e33dd56e2494c5f1349ec6c9806805bae152cabe6dbe1b561329b",
    "check antiexchange m3_lattice":
        "1:207e57fb8c64c3dfc230b6ce6bf1f80ff7d35082e190cf106b8b354d20d0badf",
    "check weakatom m3_lattice":
        "3:78538cc09c611600dc432b81b6f2dfe8b01ebd36e4559546f93cfb087374a54a",
    "check m3 m3_lattice":
        "3:ebf9b36ceecfe22b14980051d9308a7a859d5c9cc78c24ec7f970ed0cc20b290",
    "embed n2 embed_construction_n2.json":
        "3:3beaafeaa3d509ef49967dd6c03eb2674c788e0e391c7e14d3d7febec871b44d",
    "embed n2 embed_ground_n2.json":
        "3:6c24d501cc0597f3010a1f18f9164611da8ec98a55861c4504557e28c63bc5b7",
    "embed n2 embed_report_n2.json":
        "3:82f6137bc1cb25100cb34f72e08fc8a4ad4532991417d69a06704c42b2510b2d",
    "embed n2 embed_target_n2.dot":
        "3:92e365066d7813d9646c55f30c82f08a4ae8db40662a4b861f84ef9a3ad3fad5",
}


def test_artifact_bytes_unchanged(tmp_path, capsys):
    assert artifact_digests(tmp_path, capsys) == PINNED
