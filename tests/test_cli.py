import json

import pytest

from pentact.cli import main
from pentact.planarmap import generate_random, wheel5


@pytest.fixture()
def wheel_file(tmp_path):
    p = tmp_path / "w5.json"
    p.write_text(wheel5().dumps())
    return str(p)


def test_validate_ok(wheel_file):
    assert main(["validate", "--in", wheel_file]) == 0


def test_validate_chord(tmp_path):
    obj = {"outer": [0, 1, 2, 3, 4],
           "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2],
                     [5, 0], [5, 1], [5, 2], [5, 3], [5, 4]]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    assert main(["validate", "--in", str(p)]) == 1


def test_validate_malformed(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{oops")
    assert main(["validate", "--in", str(p)]) == 2


def test_represent_wheel(wheel_file, tmp_path, capsys):
    out = str(tmp_path / "rep")
    trace = str(tmp_path / "trace.json")
    assert main(["represent", "--in", wheel_file, "--out", out,
                 "--dump-trace", trace]) == 0
    text = capsys.readouterr().out
    assert "1 iteration" in text
    tr = json.loads((tmp_path / "trace.json").read_text())
    assert tr["status"] == "realized"
    assert len(tr["iterations"]) == 1
    svg = (tmp_path / "rep.svg").read_text()
    assert svg.count("pentagon") == 1


def test_represent_deterministic(tmp_path):
    g = generate_random(6, 12)
    src = tmp_path / "g.json"
    src.write_text(g.dumps())
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"rep{tag}"
        assert main(["represent", "--in", str(src), "--out", str(out)]) == 0
        outs.append((out.with_suffix(".svg").read_text(),
                     (tmp_path / f"rep{tag}.json").read_text()))
    assert outs[0] == outs[1]


def test_represent_max_iters_usage(wheel_file):
    with pytest.raises(SystemExit) as exc:
        main(["represent", "--in", wheel_file, "--max-iters", "0"])
    assert exc.value.code == 2


def test_lattice_wheel(wheel_file, capsys):
    assert main(["lattice", "--in", wheel_file]) == 0
    out = capsys.readouterr().out
    assert "orientations: 1" in out
    assert "flip edges:   0" in out


def test_lattice_random(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text(generate_random(3, 5).dumps())
    assert main(["lattice", "--in", str(p)]) == 0
    assert capsys.readouterr().out == (
        "orientations: 14\n"
        "flip edges:   19\n"
        "no-ccw elements: 1, no-cw elements: 1\n"
        "flip graph connected: True\n")


def test_lattice_too_large(tmp_path):
    g = generate_random(8, 3)
    p = tmp_path / "big.json"
    p.write_text(g.dumps())
    assert main(["lattice", "--in", str(p)]) == 1


def test_bench_empty(capsys):
    assert main(["bench", "--count", "0"]) == 0
    assert capsys.readouterr().out == "n,seed,iterations,result\n"


@pytest.mark.parametrize("size", ["x", "5-3", "0", "3-"])
def test_bench_bad_size_range_usage(size):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", size, "--count", "1"])
    assert exc.value.code == 2


def test_bench_threads_not_integer_usage(monkeypatch, capsys):
    monkeypatch.setenv("PENTACT_THREADS", "two")
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--count", "0"])
    assert exc.value.code == 2
    assert "PENTACT_THREADS" in capsys.readouterr().err


def test_data_files_validate():
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1]
    for name in ("wheel.json", "sample5.json"):
        assert main(["validate", "--in", str(root / "data" / name)]) == 0


def test_bench_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        assert main(["bench", "--n", "3-4", "--count", "4",
                     "--seed", "9", "--out", str(p)]) == 0
    assert a.read_text() == b.read_text()
    lines = a.read_text().strip().splitlines()
    assert len(lines) == 5
    assert all(line.endswith("realized") for line in lines[1:])
