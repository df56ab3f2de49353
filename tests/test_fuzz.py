import re
from random import Random

import pytest

from conic_butterfly import fuzz
from conic_butterfly.fuzz import CampaignConfig, CampaignCounts, run_campaign
from conic_butterfly.reports import CheckReport, Verdict
from conic_butterfly.scenario_io import CLAIM_ORDER, parse_scenario, run_document
from conic_butterfly.scenarios import RetryCapError


class TestConfig:
    def test_header_format(self):
        config = CampaignConfig(7, 3, "gauss", 8, ("damn", "mono"))
        assert config.header() == ("campaign seed=7 count=3 backend=gauss "
                                   "height=8 checks=mono,damn")

    def test_checks_normalized_to_claim_order(self):
        config = CampaignConfig(1, 1, checks=("cutl", "pascal", "mono"))
        assert config.checks == ("mono", "pascal", "cutl")

    def test_default_checks_are_the_backends_claims(self):
        assert CampaignConfig(1, 1).checks == CLAIM_ORDER
        assert CampaignConfig(1, 1, "prime").checks == ("mono", "jap", "nut", "sack", "pascal", "damn")

    def test_seed_bounds(self):
        CampaignConfig(-(1 << 63), 1)
        CampaignConfig((1 << 64) - 1, 1)
        for bad in (1 << 64, -(1 << 63) - 1, "7"):
            with pytest.raises(ValueError):
                CampaignConfig(bad, 1)

    def test_rejections(self):
        with pytest.raises(ValueError, match="count"):
            CampaignConfig(1, 0)
        with pytest.raises(ValueError, match="height"):
            CampaignConfig(1, 1, height=0)
        with pytest.raises(ValueError, match="unknown backend"):
            CampaignConfig(1, 1, backend="float")
        with pytest.raises(ValueError, match="unknown checks"):
            CampaignConfig(1, 1, checks=("mono", "bogus"))
        with pytest.raises(ValueError, match="at least one"):
            CampaignConfig(1, 1, checks=())
        with pytest.raises(ValueError, match="gauss backend"):
            CampaignConfig(1, 1, backend="prime", checks=("cutl",))


CELL_RE = re.compile(r"cell (\d+) ([a-z]+) (HOLDS|DEGENERATE|VIOLATED|RETRY-EXHAUSTED)")


class TestStream:
    def test_line_grammar_and_counts(self):
        config = CampaignConfig(11, 4, height=6, checks=("mono", "damn"))
        counts = CampaignCounts()
        lines = list(run_campaign(config, counts=counts))
        assert lines[0] == config.header()
        assert lines[-1] == counts.line()
        cells = lines[1:-1]
        assert len(cells) == 8
        for k, line in enumerate(cells):
            m = CELL_RE.match(line)
            assert m, line
            assert int(m.group(1)) == k // 2
            assert m.group(2) == ("mono", "damn")[k % 2]
        assert counts.cells == 8
        assert counts.holds + counts.degenerate == 8
        assert counts.violated == 0

    def test_all_checks_prime(self):
        config = CampaignConfig(5, 2, backend="prime", height=6,
                                checks=tuple(c for c in CLAIM_ORDER if c != "cutl"))
        counts = CampaignCounts()
        lines = list(run_campaign(config, counts=counts))
        assert counts.cells == 12
        assert counts.violated == 0
        assert len(lines) == 14

    def test_byte_identity_across_runs(self):
        config = CampaignConfig(23, 3, height=6, checks=("nut", "sack", "cutl"))
        first = "\n".join(run_campaign(config))
        second = "\n".join(run_campaign(config))
        assert first == second

    def test_byte_identity_across_jobs(self):
        config = CampaignConfig(29, 3, height=6, checks=("mono", "pascal"))
        serial = "\n".join(run_campaign(config, jobs=1))
        parallel = "\n".join(run_campaign(config, jobs=2))
        assert serial == parallel

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            list(run_campaign(CampaignConfig(1, 1), jobs=0))

    def test_exit_status(self):
        counts = CampaignCounts()
        assert counts.exit_status() == 2  # nothing ran
        counts.holds = 5
        counts.cells = 5
        assert counts.exit_status() == 0
        counts.violated = 1
        assert counts.exit_status() == 1


class TestViolationPath:
    @pytest.fixture
    def broken_damn(self, monkeypatch):
        """Make every damn cell report a fake violation that still carries a
        genuine replayable scenario document."""
        real = fuzz._RUNNERS["damn"]

        def sabotaged(rng, field, height, budget, index):
            report, doc = real(rng, field, height, budget, index)
            bad = CheckReport(report.claim, Verdict.VIOLATED, report.witnesses,
                              residual=field.one())
            return bad, doc

        monkeypatch.setitem(fuzz._RUNNERS, "damn", sabotaged)

    def test_abort_with_replay_block(self, broken_damn):
        config = CampaignConfig(41, 5, height=5, checks=("nut", "damn"))
        counts = CampaignCounts()
        lines = list(run_campaign(config, counts=counts))
        assert counts.violated == 1
        assert counts.cells == 2  # nut 0 held, damn 0 aborted the run
        assert counts.exit_status() == 1
        assert lines[-1] == counts.line()

        joined = "\n".join(lines)
        assert "report damn" in joined
        assert "verdict VIOLATED" in joined
        assert "residual" in joined

        start = lines.index("  check damn") - 1
        assert lines[start] == "replay"
        stop = lines.index("end replay")
        replay = "\n".join(l[2:] for l in lines[start + 1:stop])
        doc = parse_scenario(replay)
        assert doc.check == "damn"
        report = run_document(doc)[0]
        assert report.verdict is Verdict.HOLDS  # the sabotage was synthetic

    def test_retry_exhaustion_is_survivable(self, monkeypatch):
        def exhausted(rng, field, height, budget, index):
            raise RetryCapError("rejected 201 draws (last: synthetic); giving up")

        monkeypatch.setitem(fuzz._RUNNERS, "jap", exhausted)
        config = CampaignConfig(43, 2, height=5, checks=("jap", "nut"))
        counts = CampaignCounts()
        lines = list(run_campaign(config, counts=counts))
        assert counts.retry_exhausted == 2
        assert counts.cells == 4
        assert any("RETRY-EXHAUSTED" in l for l in lines)
        assert counts.exit_status() == 0  # the nut cells still held


class TestCellDeterminism:
    def test_cell_rng_depends_only_on_coordinates(self):
        # the same (seed, index, claim) cell must print the same lines even
        # when evaluated inside different campaign shapes
        wide = CampaignConfig(47, 2, height=6, checks=("mono", "nut"))
        narrow = CampaignConfig(47, 2, height=6, checks=("nut",))
        wide_lines = [l for l in run_campaign(wide) if " nut " in l]
        narrow_lines = [l for l in run_campaign(narrow) if " nut " in l]
        assert wide_lines == narrow_lines

    def test_mono_alternates_converse(self):
        rng_even = Random("53:0:mono")
        rng_odd = Random("53:1:mono")
        from conic_butterfly.scenarios import random_mono_inputs
        from conic_butterfly.projective import incident, meet

        frame0, l0, _y0, _yp0, m0 = random_mono_inputs(rng_even, height_bound=10)
        assert m0 == meet(l0, frame0.axis)
        frame1, l1, _y1, _yp1, m1 = random_mono_inputs(rng_odd, height_bound=10,
                                                       converse=True)
        assert m1 != meet(l1, frame1.axis)
