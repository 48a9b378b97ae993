"""Tests for the kernel self-verification harness."""

import pytest

from repro.gpu.spec import H100_SXM5
from repro.kernels import verification
from repro.kernels.verification import VerificationReport, verify_kernels


class TestVerifyKernels:
    def test_clean_installation_passes(self):
        report = verify_kernels(cases=8, seed=3)
        assert report.ok, report.summary()
        assert report.numerics_cases == 8
        assert report.timing_cases == 3
        assert "OK" in report.summary()

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_kernels(cases=0)

    def test_gpu_without_int4_refused_before_any_case(self, monkeypatch):
        ran = []
        monkeypatch.setattr(verification, "_check_numerics",
                            lambda *args: ran.append(args))
        with pytest.raises(ValueError, match="no INT4 tensor core"):
            verify_kernels(cases=1, spec=H100_SXM5)
        assert ran == []

    def test_a100_report_unchanged(self):
        # The A100 self-check as it read before the oracle was built once
        # per run instead of once per timing case.
        report = verify_kernels(cases=12, seed=0)
        assert (report.numerics_cases, report.timing_cases) == (12, 4)
        assert report.failures == []

    def test_deterministic(self):
        a = verify_kernels(cases=4, seed=7)
        b = verify_kernels(cases=4, seed=7)
        assert a.ok == b.ok
        assert a.numerics_cases == b.numerics_cases

    def test_failure_reporting_format(self):
        report = VerificationReport(failures=["numerics x: packed != reference"])
        assert not report.ok
        assert "FAILED" in report.summary()
        assert "packed != reference" in report.summary()
