"""Unit tests for the repro-compare CLI."""

import pytest

from repro.cli import build_parser, describe, main, make_workload
from repro.common.params import scaled_config
from repro.workloads.phased import PhasedWorkload
from repro.workloads.server import ServerWorkload
from repro.workloads.speclike import SpecLikeWorkload


class TestDescribe:
    def test_contains_structures_and_params(self):
        text = describe(scaled_config())
        for token in ("ITLB", "STLB", "L2C", "LLC", "DRAM", "K=8", "Freq=3b"):
            assert token in text

    def test_reflects_policies(self):
        text = describe(scaled_config().with_policies(stlb="itp", l2c="xptp"))
        assert "itp" in text
        assert "xptp" in text


class TestMakeWorkload:
    def test_kinds(self):
        assert isinstance(make_workload("server", 1), ServerWorkload)
        assert isinstance(make_workload("spec", 1), SpecLikeWorkload)
        assert isinstance(make_workload("phased", 1), PhasedWorkload)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_workload("redis", 1)


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "itp+xptp" in out
        assert "all-LRU baseline" in out

    def test_describe_flag(self, capsys):
        assert main(["--describe"]) == 0
        assert "STLB" in capsys.readouterr().out

    def test_unknown_technique(self, capsys):
        assert main(["--techniques", "belady"]) == 2
        assert "unknown technique" in capsys.readouterr().err

    def test_small_comparison(self, capsys):
        rc = main([
            "--techniques", "lru", "itp",
            "--warmup", "2000", "--measure", "8000", "--seed", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "technique" in out
        assert "itp" in out

    def test_energy_column(self, capsys):
        rc = main([
            "--techniques", "lru", "--energy",
            "--warmup", "1000", "--measure", "5000",
        ])
        assert rc == 0
        assert "pj_per_instr" in capsys.readouterr().out

    def test_large_pages_flag(self, capsys):
        rc = main([
            "--techniques", "lru", "--large-pages", "100",
            "--warmup", "1000", "--measure", "5000",
        ])
        assert rc == 0

    def test_large_pages_out_of_range_is_rejected(self, capsys):
        assert main(["--techniques", "lru", "--large-pages", "150"]) == 2
        err = capsys.readouterr().err
        assert "--large-pages" in err
        assert "[0, 100]" in err

    def test_negative_seed_is_rejected(self, capsys):
        assert main(["--techniques", "lru", "--seed", "-1",
                     "--warmup", "100", "--measure", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("--seed:")
        assert "--large-pages" not in err

    def test_uncreatable_cache_dir_is_a_usage_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["--techniques", "lru", "--cache-dir", str(blocker / "sub"),
                     "--warmup", "100", "--measure", "100"]) == 2
        assert str(blocker / "sub") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, field",
        [(["--measure", "0"], "measure"), (["--warmup", "-5"], "warmup")],
    )
    def test_impossible_window_is_rejected(self, capsys, flags, field):
        assert main(["--techniques", "lru", *flags]) == 2
        assert f"SimJob {field}" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.workload == "server"
        assert args.techniques == ["lru", "itp", "itp+xptp"]
