"""The differential conformance subsystem (repro.conformance).

Fast fixed-seed smoke lives here in tier-1; the long campaign is behind
``-m fuzz`` (see tests/conftest.py and docs/TESTING.md).
"""

import json

import pytest

from repro.conformance import (
    CaseConfig,
    check_goldens,
    load_goldens,
    load_repro,
    random_case,
    run_campaign,
    run_case,
    save_goldens,
    save_repro,
    shrink_case,
    summary_dict,
)
from repro.benchmarks import BENCHMARK_NAMES
from repro.cli import main
from repro.core import Automaton, CharSet, CounterElement, StartMode
from repro.engines import BitsetEngine
from repro.engines.cache import automaton_fingerprint


class FaultyBitsetEngine(BitsetEngine):
    """Deliberate fault: state 0 wrongly also enables the last state."""

    def __init__(self, automaton):
        super().__init__(automaton)
        if self._n >= 2:
            self._succ_int[0] |= 1 << (self._n - 1)


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = random_case(42)
        b = random_case(42)
        assert automaton_fingerprint(a.automaton) == automaton_fingerprint(b.automaton)
        assert a.data == b.data

    def test_seeds_differ(self):
        assert random_case(1).data != random_case(2).data or automaton_fingerprint(
            random_case(1).automaton
        ) != automaton_fingerprint(random_case(2).automaton)

    def test_structural_diversity(self):
        """Over a seed range the generator must hit every targeted corner."""
        saw_counter = saw_all_input = saw_reporting_start = False
        saw_dead = saw_empty_input = saw_out_of_alphabet = saw_empty_charset = False
        saw_merged = saw_mixed_counters = False
        for seed in range(150):
            case = random_case(seed)
            a = case.automaton
            if any(isinstance(e, CounterElement) for e in a.elements()):
                saw_counter = True
            # Merged parts are the unprefixed first part and g1., g2., ...
            parts = {e.ident.split(".")[0] if "." in e.ident else "" for e in a.elements()}
            if len(parts) >= 2:
                saw_merged = True
                with_counters = {
                    e.ident.split(".")[0] if "." in e.ident else ""
                    for e in a.elements()
                    if isinstance(e, CounterElement)
                }
                if with_counters and with_counters != parts:
                    saw_mixed_counters = True
            for ste in a.stes():
                if ste.start is StartMode.ALL_INPUT:
                    saw_all_input = True
                if ste.is_start() and ste.report:
                    saw_reporting_start = True
                if not ste.is_start() and not a.predecessors(ste.ident):
                    saw_dead = True
                if ste.charset.is_empty():
                    saw_empty_charset = True
            if not case.data:
                saw_empty_input = True
            if any(b not in b"abcd" for b in case.data):
                saw_out_of_alphabet = True
        assert all(
            [
                saw_counter,
                saw_all_input,
                saw_reporting_start,
                saw_dead,
                saw_empty_input,
                saw_out_of_alphabet,
                saw_empty_charset,
                saw_merged,
                saw_mixed_counters,
            ]
        )

    def test_bit_level_cases_are_strideable(self):
        for seed in range(30):
            case = random_case(seed, bit_level=True)
            assert all(b in (0, 1) for b in case.data)
            assert all(
                ste.charset.issubset(CharSet([0, 1])) for ste in case.automaton.stes()
            )
            assert not any(True for _ in case.automaton.counters())


class TestDifferentialSmoke:
    """Fixed-seed smoke: all engines and transforms agree with reference."""

    def test_byte_level_seeds_clean(self):
        for seed in range(40):
            case = random_case(seed)
            divergences = run_case(case.automaton, case.data)
            assert not divergences, f"seed {seed}: {divergences}"

    def test_bit_level_seeds_clean(self):
        for seed in range(12):
            case = random_case(seed, bit_level=True)
            divergences = run_case(case.automaton, case.data, bit_level=True)
            assert not divergences, f"seed {seed}: {divergences}"

    def test_empty_input_clean(self):
        case = random_case(5)
        assert not run_case(case.automaton, b"")

    def test_campaign_api_clean(self):
        report = run_campaign(16)
        assert report.clean
        summary = summary_dict(report)
        assert summary["seeds"] == 16
        assert summary["clean"] is True
        assert summary["divergences"] == []


class TestFaultInjection:
    """A perturbed successor mask must be caught and shrunk small."""

    factories = {"bitset": FaultyBitsetEngine}

    def _first_caught(self):
        for seed in range(60):
            case = random_case(seed)
            divergences = run_case(
                case.automaton,
                case.data,
                engine_factories=self.factories,
                include_transforms=False,
            )
            if divergences:
                return case, divergences
        pytest.fail("injected fault never caught in 60 seeds")

    def test_fault_is_caught_and_shrunk_to_tiny_repro(self, tmp_path):
        case, divergences = self._first_caught()
        subject = divergences[0].subject

        def check(a, d):
            return any(
                x.subject == subject
                for x in run_case(
                    a, d, engine_factories=self.factories, include_transforms=False
                )
            )

        small, small_data = shrink_case(case.automaton, case.data, check)
        assert small.n_states <= 8  # the ISSUE acceptance bound
        assert len(small_data) <= len(case.data)
        assert check(small, small_data)  # still reproduces after shrinking

        path = save_repro(tmp_path / "case_fault", small, small_data, {"subject": subject})
        loaded, loaded_data, meta = load_repro(path)
        assert loaded_data == small_data
        assert meta["subject"] == subject
        assert check(loaded, loaded_data)  # repro survives serialization

    def test_campaign_records_and_serialises_divergence(self, tmp_path):
        # seed 16 is the first the injected fault trips on (see _first_caught)
        report = run_campaign(
            5,
            start_seed=14,
            engine_factories=self.factories,
            repro_dir=tmp_path / "repros",
        )
        assert not report.clean
        record = report.records[0]
        assert record.shrunk_states is not None and record.shrunk_states <= 8
        assert record.repro_path is not None
        loaded, _data, meta = load_repro(record.repro_path)
        assert meta["seed"] == record.seed
        summary = summary_dict(report)
        assert summary["clean"] is False
        assert summary["divergences"][0]["subject"].startswith("engine:bitset")


class TestShrinker:
    def test_rejects_passing_case(self):
        case = random_case(0)
        with pytest.raises(ValueError):
            shrink_case(case.automaton, case.data, lambda a, d: False)

    def test_minimises_a_crafted_predicate(self):
        a = Automaton("big")
        for i in range(10):
            a.add_ste(f"s{i}", CharSet.from_chars("ab"), start=StartMode.ALL_INPUT, report=True, report_code=i)
        for i in range(9):
            a.add_edge(f"s{i}", f"s{i+1}")

        def check(auto, data):
            return "s7" in auto and b"a" in data

        small, small_data = shrink_case(a, b"xxaxbbay", check)
        assert small.n_states == 1 and "s7" in small
        assert small_data == b"a"


class TestGoldens:
    def test_registry_covers_every_benchmark(self):
        golden = load_goldens()
        assert set(golden) == set(BENCHMARK_NAMES)
        for entry in golden.values():
            assert {"fingerprint", "input_sha256", "report_sha256"} <= set(entry)

    def test_tampered_golden_is_detected(self, tmp_path):
        golden = load_goldens()
        name = "Snort"
        golden[name] = dict(golden[name], report_sha256="0" * 64)
        path = save_goldens(golden, tmp_path / "goldens.json")
        problems = check_goldens(names=[name], path=path)
        assert problems and "report_sha256 drifted" in problems[0]

    def test_missing_entry_is_detected(self, tmp_path):
        path = save_goldens({}, tmp_path / "goldens.json")
        problems = check_goldens(names=["Snort"], path=path)
        assert problems == ["Snort: no golden entry (run --update-goldens)"]

    @pytest.mark.slow
    def test_all_24_generators_match_goldens(self):
        """The single regression test: any behavioral drift in a generator,
        input stimulus, engine or transform feeding them fails here.
        Intentional changes: ``repro conformance --update-goldens``."""
        assert check_goldens() == []


class TestCLI:
    def test_conformance_command_clean(self, tmp_path, capsys):
        out = tmp_path / "CONFORMANCE.json"
        code = main(
            [
                "conformance",
                "--seeds",
                "8",
                "--skip-goldens",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["seeds"] == 8 and summary["clean"] is True
        assert "clean" in capsys.readouterr().out

    def test_conformance_golden_check_subset_via_api(self):
        # The CLI's golden check is check_goldens(); verify a cheap subset
        # end-to-end here (the full 24 run in the slow golden test).
        assert check_goldens(names=["Snort", "File Carving"]) == []


@pytest.mark.fuzz
class TestLongCampaign:
    """The long campaign: ``pytest -m fuzz``.  Hundreds of seeds across
    both alphabets plus a larger-automaton sweep."""

    def test_500_seed_campaign_clean(self):
        report = run_campaign(500)
        assert report.clean, summary_dict(report)

    def test_big_config_campaign_clean(self):
        report = run_campaign(
            250,
            start_seed=10_000,
            config=CaseConfig(max_states=18, max_input_len=120),
        )
        assert report.clean, summary_dict(report)


class TestCampaignResilience:
    """Time budgets and checkpointed resume (docs/RESILIENCE.md)."""

    def test_max_seconds_truncates_with_valid_summary(self):
        report = run_campaign(10_000, max_seconds=0.2)
        assert report.truncated
        assert 0 < report.completed_seeds < 10_000
        summary = summary_dict(report)
        json.dumps(summary)  # still a complete, valid document
        assert summary["truncated"] is True
        assert summary["completed_seeds"] == report.completed_seeds

    def test_unbudgeted_campaign_is_not_truncated(self):
        report = run_campaign(8)
        assert not report.truncated
        assert report.completed_seeds == 8

    def test_truncated_campaign_keeps_journal_and_resumes(self, tmp_path):
        ckpt = tmp_path / "c.ckpt.json"
        # tiny budget: some seeds finish, the journal survives
        first = run_campaign(200, max_seconds=0.15, checkpoint=ckpt)
        assert first.truncated
        assert ckpt.exists()
        done_before = first.completed_seeds
        assert len(json.loads(ckpt.read_text())["cells"]) == done_before

        resumed = run_campaign(200, checkpoint=ckpt, resume=True)
        assert not resumed.truncated
        assert resumed.completed_seeds == 200
        assert not ckpt.exists()
        # resumed records match a straight-through campaign
        straight = run_campaign(200)
        key = lambda rec: (rec.seed, rec.divergence.subject)
        assert sorted(map(key, resumed.records)) == sorted(
            map(key, straight.records)
        )
