"""Unit tests for the exception hierarchy and misc plumbing."""

import subprocess
import sys

import pytest

from repro.exceptions import (
    DimensionalityError,
    EmptyDatasetError,
    InvalidProbabilityError,
    NotANonAnswerError,
    ReproError,
    UnknownObjectError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            DimensionalityError(2, 3),
            EmptyDatasetError("empty"),
            UnknownObjectError("gone"),
            InvalidProbabilityError("bad"),
            NotANonAnswerError("answer"),
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert isinstance(exc, ReproError)

    def test_dimensionality_message(self):
        exc = DimensionalityError(2, 3, what="point")
        assert "point" in str(exc)
        assert exc.expected == 2
        assert exc.actual == 3

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise NotANonAnswerError("x")


class TestModuleEntryPoint:
    def test_python_dash_m_repro_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "reverse skyline" in proc.stdout.lower()

    def test_python_dash_m_repro_requires_command(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0


class TestVersionMetadata:
    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None
