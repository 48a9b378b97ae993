"""Per-family rule tests over the committed fixture trees.

``fixtures/dirty`` mimics the package layout (core/, kernels/, model/,
serving/, obs/) and plants one known violation per rule; ``fixtures/clean``
is a conformant tree that must produce nothing.
"""

from pathlib import Path

import pytest

from repro.staticcheck import run_check

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def dirty():
    return run_check(FIXTURES / "dirty")


def _hits(result, rule_id, rel=None):
    return [
        v
        for v in result.violations
        if v.rule.id == rule_id and (rel is None or v.rel == rel)
    ]


class TestNUM:
    def test_astype_widening(self, dirty):
        lines = {v.line for v in _hits(dirty, "NUM001", "core/numerics.py")}
        assert len(lines) == 3  # np.float64, "float64", builtin float

    def test_dtypeless_constructors(self, dirty):
        assert len(_hits(dirty, "NUM002", "core/numerics.py")) == 2

    def test_float64_conversions(self, dirty):
        hits = _hits(dirty, "NUM003", "core/numerics.py")
        # scalar cast + asarray conversion; the suppressed one is separate.
        reported = [v for v in hits if v.status == "reported"]
        assert len(reported) == 2

    def test_explicit_allocation_allowed(self, dirty):
        texts = " ".join(
            v.line_text for v in dirty.violations if v.rel == "core/numerics.py"
        )
        assert "alloc_f64_ok" not in texts
        assert "dtype=np.float32" not in texts

    def test_out_of_scope_dir_unflagged(self, dirty):
        assert not [
            v for v in dirty.violations if v.rel == "analysis/out_of_scope.py"
        ]


class TestDET:
    def test_legacy_np_random(self, dirty):
        assert len(_hits(dirty, "DET001", "core/rng.py")) == 2

    def test_stdlib_random_import(self, dirty):
        assert len(_hits(dirty, "DET002", "core/rng.py")) == 1

    def test_wall_clock(self, dirty):
        assert len(_hits(dirty, "DET003", "core/rng.py")) == 1

    def test_seeded_generator_allowed(self, dirty):
        texts = [v.line_text for v in _hits(dirty, "DET001")]
        assert not any("default_rng" in t for t in texts)
        assert not any("Generator" in t for t in texts)

    def test_serving_faults_in_scope(self, dirty):
        assert len(_hits(dirty, "DET001", "serving/faults.py")) == 1

    def test_builtin_hash_in_data_scope(self, dirty):
        hits = _hits(dirty, "DET004", "data/seeds.py")
        assert [v.line_text.strip() for v in hits] == [
            "return np.random.default_rng(hash(name) % 2**32)  # DET004"
        ]


class TestOBS:
    def test_undeclared_emission(self, dirty):
        hits = _hits(dirty, "OBS001", "serving/emit.py")
        assert len(hits) == 1
        assert "demo.undeclared_total" in hits[0].message

    def test_orphan_declaration(self, dirty):
        hits = _hits(dirty, "OBS002", "obs/catalog.py")
        assert len(hits) == 1
        assert "demo.orphan_total" in hits[0].message

    def test_kind_mismatch(self, dirty):
        hits = _hits(dirty, "OBS003", "serving/emit.py")
        assert len(hits) == 1
        assert "demo.kind_mismatch" in hits[0].message

    def test_helper_routed_literal_counts_as_usage(self, dirty):
        assert not any(
            "helper_routed" in v.message for v in _hits(dirty, "OBS002")
        )


class TestAPI:
    def test_missing_annotations(self, dirty):
        hits = _hits(dirty, "API001", "core/api_surface.py")
        assert {v.line_text.split("(")[0] for v in hits} == {
            "def unannotated",
            "def half_annotated",
            "def method",
        }

    def test_private_and_nested_exempt(self, dirty):
        texts = " ".join(v.message for v in _hits(dirty, "API001"))
        assert "_private" not in texts
        assert "nested" not in texts

    def test_dataclass_none_default(self, dirty):
        hits = _hits(dirty, "API002", "core/api_surface.py")
        assert len(hits) == 1
        assert "'limit'" in hits[0].message


class TestIMP:
    def test_core_imports_serving(self, dirty):
        assert len(_hits(dirty, "IMP001", "core/layering.py")) == 1

    def test_core_imports_obs_both_spellings(self, dirty):
        assert len(_hits(dirty, "IMP002", "core/layering.py")) == 2

    def test_kernels_relative_serving_import(self, dirty):
        assert len(_hits(dirty, "IMP003", "kernels/layering2.py")) == 1

    def test_package_init_imports_submodules(self, dirty):
        hits = _hits(dirty, "IMP004", "model/__init__.py")
        assert {v.message.split()[5] for v in hits} == {
            "repro.model.config", "repro.model.layers",
        }

    def test_package_init_exemptions(self, dirty):
        # The lazy helper, another package, a TYPE_CHECKING block and a
        # deferred import inside a def are all allowed.
        named = " ".join(v.message.split()[5] for v in _hits(dirty, "IMP004"))
        for allowed in ("_lazy", "intquant", "rope", "attention"):
            assert allowed not in named

    def test_instrument_seam_allowed(self, dirty):
        assert not any(
            "instrument" in v.message for v in dirty.violations
        )


def test_clean_tree_is_clean():
    result = run_check(FIXTURES / "clean")
    assert result.violations == []
    assert result.exit_code == 0
    assert result.files_scanned == 3
