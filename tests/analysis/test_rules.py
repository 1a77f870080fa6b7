"""Per-rule fixture coverage for the static analyzer.

Each rule gets one passing and one failing fixture module (under
``tests/analysis/fixtures/``), driven through the analyzer API; the
failing side also pins rule ids and line numbers so findings stay
actionable, and the noqa behavior is exercised both rule-scoped and
blanket.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, get_rule, render_findings
from repro.analysis.core import Finding

pytestmark = pytest.mark.analysis

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(rule_id: str, *relpaths: str) -> list[Finding]:
    paths = [FIXTURES / rel for rel in relpaths]
    return analyze_paths(paths, rules=[get_rule(rule_id)], root=FIXTURES)


# -- telemetry-consistency -------------------------------------------------

def test_telemetry_clean_fixture_passes():
    assert run_rule("telemetry-consistency", "telemetry_ok") == []


def test_telemetry_flags_drift_both_ways():
    findings = run_rule("telemetry-consistency", "telemetry_bad")
    messages = [f.message for f in findings]
    assert any("'undeclared.event' is not declared" in m for m in messages)
    assert any("'undeclared.count' is not declared" in m for m in messages)
    assert any("'other.*.ns' does not match" in m for m in messages)
    assert any("event name is an f-string" in m for m in messages)
    # dead declarations are located in the fixture schema itself
    dead = [f for f in findings if "dead." in f.message]
    assert {f.path for f in dead} == {"telemetry_bad/schema.py"}
    assert {f.message.split("'")[1] for f in dead} == {
        "dead.event", "dead.count", "dead.*.ns",
    }
    assert all(f.line > 0 for f in findings)


def test_telemetry_single_file_uses_installed_schema():
    # No schema module in the analyzed set: declarations fall back to
    # repro.telemetry.schema and dead-declaration checks are skipped.
    findings = run_rule("telemetry-consistency", "telemetry_bad/app.py")
    assert any("undeclared.event" in f.message for f in findings)
    assert not any("has no emit site" in f.message for f in findings)


# -- rng-discipline --------------------------------------------------------

def test_rng_clean_fixture_passes():
    assert run_rule("rng-discipline", "rng/repro/ga/good.py") == []


def test_rng_flags_every_global_rng_form():
    findings = run_rule("rng-discipline", "rng/repro/ga/bad.py")
    assert len(findings) == 5
    assert {f.rule for f in findings} == {"rng-discipline"}
    joined = " ".join(f.message for f in findings)
    assert "np.random.seed" in joined
    assert "np.random.rand" in joined
    assert "stdlib RNG 'random.random'" in joined
    assert "default_rng() without a seed" in joined
    assert "import of 'random'" in joined


def test_rng_path_filter_skips_unrestricted_trees(tmp_path):
    # The same violations outside repro/{search,ga,abs,backends,gpusim}
    # are not this rule's business.
    mod = tmp_path / "scratch.py"
    mod.write_text("import numpy as np\nx = np.random.rand(3)\n")
    assert analyze_paths([mod], rules=[get_rule("rng-discipline")]) == []


# -- config-plumbing -------------------------------------------------------

def test_config_clean_fixture_passes():
    assert run_rule("config-plumbing", "config_ok") == []


def test_config_flags_unplumbed_field_in_both_layers():
    findings = run_rule("config-plumbing", "config_bad")
    assert len(findings) == 2
    assert all("AbsConfig.gamma" in f.message for f in findings)
    assert all(f.path == "config_bad/config.py" for f in findings)
    assert {("api.solve()" in f.message, "CLI" in f.message) for f in findings} == {
        (True, False), (False, True),
    }


# -- kernel-purity ---------------------------------------------------------

def test_kernel_clean_fixture_passes():
    assert run_rule("kernel-purity", "kernel/repro/backends/good_backend.py") == []


def test_kernel_flags_impurities():
    findings = run_rule("kernel-purity", "kernel/repro/backends/bad_backend.py")
    joined = " ".join(f.message for f in findings)
    assert "imports from 'repro.telemetry'" in joined
    assert "telemetry emitted from a kernel backend" in joined
    assert "closes over mutable module global '_CACHE'" in joined
    assert "rebinds outer state via global" in joined


def test_kernel_flags_hot_path_process_work():
    findings = run_rule("kernel-purity", "kernel/repro/backends/bad_backend.py")
    hot = [f.message for f in findings if "hot kernel" in f.message]
    joined = " ".join(hot)
    assert "'run_local_steps' calls 'subprocess.run'" in joined
    assert "'run_local_steps' calls 'warnings.warn'" in joined
    assert "'run_local_steps' calls 'print'" in joined
    # prepare_dense in the clean fixture does the same work legally.
    assert run_rule("kernel-purity", "kernel/repro/backends/good_backend.py") == []


def test_kernel_flags_process_work_in_run_straight():
    findings = run_rule("kernel-purity", "kernel/repro/backends/bad_straight_backend.py")
    joined = " ".join(f.message for f in findings)
    assert "'run_straight' calls 'tempfile.mkdtemp'" in joined
    assert "'run_straight' calls 'subprocess.run'" in joined
    assert len(findings) == 2


# -- shm-protocol ----------------------------------------------------------

def test_shm_clean_fixture_passes():
    assert run_rule("shm-protocol", "shm_ok") == []


def test_shm_flags_ordering_and_out_of_module_access():
    findings = run_rule("shm-protocol", "shm_bad")
    joined = " ".join(f"{f.path}:{f.line} {f.message}" for f in findings)
    assert "TornMailbox.publish" in joined and "torn record" in joined
    assert "TornMailbox.fetch" in joined and "re-check" in joined
    assert "TornRing.consume" in joined and "released the slot" in joined
    assert "raw SharedMemory.buf indexing" in joined
    assert "offset ndarray view" in joined
    assert "_header word accessed outside" in joined


# -- framework behavior ----------------------------------------------------

def test_noqa_rule_scoped_suppression():
    assert run_rule("rng-discipline", "rng/repro/ga/suppressed.py") == []


def test_noqa_blanket_and_mismatched_rule(tmp_path):
    repro_dir = tmp_path / "repro" / "ga"
    repro_dir.mkdir(parents=True)
    mod = repro_dir / "mod.py"
    mod.write_text(
        "import numpy as np\n"
        "a = np.random.rand(2)  # repro: noqa\n"
        "b = np.random.rand(2)  # repro: noqa[telemetry-consistency]\n"
    )
    findings = analyze_paths([mod], rules=[get_rule("rng-discipline")])
    # blanket noqa silences line 2; a noqa naming another rule does not
    # excuse line 3
    assert [f.line for f in findings] == [3]


def test_unknown_rule_raises():
    with pytest.raises(KeyError, match="unknown rule"):
        get_rule("no-such-rule")


def test_parse_error_is_a_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    findings = analyze_paths([bad])
    assert len(findings) == 1
    assert findings[0].rule == "parse-error"


def test_render_formats():
    finding = Finding(path="a.py", line=3, rule="rng-discipline", message="boom")
    text = render_findings([finding], "text")
    assert "a.py:3: error: [rng-discipline] boom" in text
    payload = json.loads(render_findings([finding], "json"))
    assert payload["count"] == 1
    assert payload["findings"][0]["line"] == 3
