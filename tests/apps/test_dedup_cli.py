"""Dedup CLI (`python -m repro.apps.dedup`) tests."""

import pytest

from repro.apps.datasets import linux_src, parsec_large
from repro.apps.dedup.__main__ import main


@pytest.fixture
def sample_file(tmp_path):
    p = tmp_path / "input.bin"
    p.write_bytes(linux_src(size=128 * 1024, seed=12))
    return p


def test_pack_unpack_roundtrip_cpu(sample_file, tmp_path, capsys):
    arc = tmp_path / "out.rdda"
    out = tmp_path / "restored.bin"
    assert main(["pack", str(sample_file), str(arc), "--replicas", "2",
                 "--verify", "--batch-size", "32768"]) == 0
    assert "bit-exact" in capsys.readouterr().out
    assert main(["unpack", str(arc), str(out)]) == 0
    assert out.read_bytes() == sample_file.read_bytes()


def test_pack_gpu_produces_restorable_archive(sample_file, tmp_path, capsys):
    arc = tmp_path / "gpu.rdda"
    assert main(["pack", str(sample_file), str(arc), "--gpu", "--verify",
                 "--replicas", "2", "--batch-size", "32768"]) == 0
    out = capsys.readouterr().out
    assert "bit-exact" in out
    assert arc.stat().st_size < sample_file.stat().st_size


def test_info_reports_records(sample_file, tmp_path, capsys):
    arc = tmp_path / "a.rdda"
    main(["pack", str(sample_file), str(arc), "--batch-size", "32768"])
    capsys.readouterr()
    assert main(["info", str(arc)]) == 0
    out = capsys.readouterr().out
    assert "records:" in out and "restores to 131,072 B" in out


def test_cpu_and_gpu_pack_honour_batch_size_identically(tmp_path, capsys):
    src = tmp_path / "corpus.bin"
    src.write_bytes(parsec_large(size=160 * 1024, seed=5))
    cpu, gpu = tmp_path / "cpu.rdda", tmp_path / "gpu.rdda"
    common = ["--replicas", "2", "--batch-size", "65536"]
    assert main(["pack", str(src), str(cpu), *common]) == 0
    assert main(["pack", str(src), str(gpu), "--gpu", *common]) == 0
    capsys.readouterr()
    assert cpu.read_bytes() == gpu.read_bytes()
