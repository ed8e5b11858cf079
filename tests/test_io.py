"""Unit tests for CSV/JSON (de)serialization and the CLI."""

import json

import numpy as np
import pytest

from repro.core.cp import compute_causality
from repro.engine.spec import PRSQSpec, UpdateSpec, spec_from_dict
from repro.exceptions import InvalidProbabilityError, error_code
from repro.io.cli import main as cli_main
from repro.io.csvio import (
    load_certain_csv,
    load_uncertain_csv,
    save_certain_csv,
    save_uncertain_csv,
)
from repro.io.jsonio import (
    dataset_from_dict,
    dataset_to_dict,
    load_dataset_json,
    result_to_dict,
    save_dataset_json,
    save_result_json,
)
from repro.uncertain.dataset import CertainDataset, UncertainDataset
from repro.uncertain.object import UncertainObject
from tests.conftest import make_uncertain_dataset


@pytest.fixture
def uncertain_ds(rng):
    return make_uncertain_dataset(rng, n=8, dims=2)


@pytest.fixture
def certain_ds(rng):
    return CertainDataset(
        rng.uniform(0, 10, size=(6, 3)), ids=[f"obj-{i}" for i in range(6)]
    )


class TestCsvRoundTrip:
    def test_certain_round_trip(self, certain_ds, tmp_path):
        path = tmp_path / "certain.csv"
        save_certain_csv(certain_ds, path)
        loaded = load_certain_csv(path)
        assert loaded.ids() == certain_ds.ids()
        assert np.array_equal(loaded.points, certain_ds.points)

    def test_uncertain_round_trip(self, uncertain_ds, tmp_path):
        path = tmp_path / "uncertain.csv"
        save_uncertain_csv(uncertain_ds, path)
        loaded = load_uncertain_csv(path)
        assert [str(oid) for oid in uncertain_ds.ids()] == loaded.ids()
        for obj in uncertain_ds:
            twin = loaded.get(str(obj.oid))
            assert np.array_equal(twin.samples, obj.samples)
            assert np.allclose(twin.probabilities, obj.probabilities)

    def test_uncertain_preserves_unequal_probabilities(self, tmp_path):
        ds = UncertainDataset(
            [UncertainObject("u", [[1.0, 2.0], [3.0, 4.0]], [0.25, 0.75])]
        )
        path = tmp_path / "u.csv"
        save_uncertain_csv(ds, path)
        loaded = load_uncertain_csv(path)
        assert loaded.get("u").probabilities.tolist() == [0.25, 0.75]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,attr0\n1,2\n")
        with pytest.raises(ValueError):
            load_certain_csv(path)
        with pytest.raises(ValueError):
            load_uncertain_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,attr0,attr1\n")
        with pytest.raises(ValueError):
            load_certain_csv(path)


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf")],
    ids=["nan", "inf", "-inf"],
)
def test_non_finite_coordinate_rejected(tmp_path, value):
    """NaN/inf in outside input would make every dominance test false."""
    with pytest.raises(ValueError, match="finite") as spec_error:
        PRSQSpec(q=(value, 5000.0), alpha=0.5)
    assert error_code(spec_error.value) == "invalid_value"
    # json.dumps writes a bare NaN/Infinity, which json.loads parses
    text = json.dumps({"kind": "prsq", "q": [value, 5000.0], "alpha": 0.5})
    with pytest.raises(ValueError, match="finite"):
        spec_from_dict(json.loads(text))
    with pytest.raises(ValueError, match="finite"):
        UpdateSpec(inserts=[("hot", [[1.0, value]], None, None)])
    with pytest.raises(InvalidProbabilityError):
        UncertainObject("hot", [[1.0, 2.0]], [value])

    certain = tmp_path / "certain.csv"
    certain.write_text(f"id,attr0,attr1\na,1.0,2.0\nb,{value},2.0\n")
    with pytest.raises(ValueError, match=rf"certain\.csv:3: non-finite"):
        load_certain_csv(certain)
    uncertain = tmp_path / "uncertain.csv"
    uncertain.write_text(
        f"id,probability,attr0,attr1\nu,0.5,1.0,2.0\nu,0.5,3.0,{value}\n"
    )
    with pytest.raises(ValueError, match=rf"uncertain\.csv:3: non-finite"):
        load_uncertain_csv(uncertain)


@pytest.mark.parametrize(
    "cells, message",
    [
        ("abc,2.0", "could not convert string to float: 'abc'"),
        ("1.0,2.0,3.0", r"row has \d cells, the header has \d"),
        ("1.0", r"row has \d cells, the header has \d"),
    ],
    ids=["non-numeric", "long-row", "short-row"],
)
def test_malformed_row_names_path_and_line(tmp_path, cells, message):
    """A bad row names its file and line, as a non-finite cell does."""
    certain = tmp_path / "certain.csv"
    certain.write_text(f"id,attr0,attr1\na,1.0,2.0\nb,{cells}\n")
    with pytest.raises(ValueError, match=rf"certain\.csv:3: {message}"):
        load_certain_csv(certain)
    uncertain = tmp_path / "uncertain.csv"
    uncertain.write_text(
        f"id,probability,attr0,attr1\nu,0.5,1.0,2.0\nu,0.5,{cells}\n"
    )
    with pytest.raises(ValueError, match=rf"uncertain\.csv:3: {message}"):
        load_uncertain_csv(uncertain)


class TestJsonRoundTrip:
    def test_uncertain_round_trip(self, uncertain_ds, tmp_path):
        path = tmp_path / "ds.json"
        save_dataset_json(uncertain_ds, path)
        loaded = load_dataset_json(path)
        assert not isinstance(loaded, CertainDataset)
        assert loaded.ids() == uncertain_ds.ids()

    def test_certain_round_trip_preserves_type(self, certain_ds, tmp_path):
        path = tmp_path / "ds.json"
        save_dataset_json(certain_ds, path)
        loaded = load_dataset_json(path)
        assert isinstance(loaded, CertainDataset)
        assert np.array_equal(loaded.points, certain_ds.points)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_dict({"kind": "mystery", "objects": []})

    def test_certain_kind_with_samples_rejected(self):
        payload = dataset_to_dict(
            UncertainDataset([UncertainObject("u", [[0, 0], [1, 1]])])
        )
        payload["kind"] = "certain"
        with pytest.raises(ValueError):
            dataset_from_dict(payload)

    def test_names_preserved(self, tmp_path):
        ds = UncertainDataset(
            [UncertainObject("u", [[0.0, 0.0]], name="Named One")]
        )
        path = tmp_path / "named.json"
        save_dataset_json(ds, path)
        assert load_dataset_json(path).get("u").name == "Named One"

    def test_result_serialization(self, tmp_path):
        ds = UncertainDataset(
            [
                UncertainObject("an", [[2.0, 2.0]]),
                UncertainObject("cf", [[2.4, 2.4]]),
            ]
        )
        result = compute_causality(ds, "an", [3.0, 3.0], alpha=0.5)
        payload = result_to_dict(result)
        assert payload["an"] == "an"
        assert payload["causes"][0]["id"] == "cf"
        assert payload["causes"][0]["responsibility"] == 1.0
        path = tmp_path / "result.json"
        save_result_json(result, path)
        assert json.loads(path.read_text())["alpha"] == 0.5


class TestCli:
    def test_generate_and_prsq(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert cli_main(
            [
                "generate", "--kind", "uncertain", "--n", "40", "--dims", "2",
                "--radius", "200", "--out", str(data),
            ]
        ) == 0
        assert data.exists()
        assert cli_main(
            ["prsq", "--data", str(data), "--q", "5000", "5000", "--alpha", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "non-answer" in out or "answer" in out

    def test_explain_flow(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        cli_main(
            [
                "generate", "--kind", "uncertain", "--n", "60", "--dims", "2",
                "--radius", "300", "--seed", "3", "--out", str(data),
            ]
        )
        capsys.readouterr()
        cli_main(["prsq", "--data", str(data), "--q", "5000", "5000"])
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.endswith("non-answer")
        ]
        if not lines:
            pytest.skip("no non-answers in this draw")
        an = lines[0].split("\t")[0]
        assert cli_main(
            [
                "explain", "--data", str(data), "--q", "5000", "5000",
                "--an", an, "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["an"] == an

    def test_explain_certain_flow(self, tmp_path, capsys):
        data = tmp_path / "cars.csv"
        cli_main(
            [
                "generate", "--kind", "certain", "--n", "80", "--dims", "2",
                "--seed", "5", "--out", str(data),
            ]
        )
        capsys.readouterr()
        loaded = load_certain_csv(data)
        from repro.skyline.reverse import reverse_skyline

        members = set(reverse_skyline(loaded, [5000.0, 5000.0]))
        non_answers = [oid for oid in loaded.ids() if oid not in members]
        assert cli_main(
            [
                "explain-certain", "--data", str(data), "--q", "5000", "5000",
                "--an", non_answers[0],
            ]
        ) == 0
        assert "causes for non-answer" in capsys.readouterr().out

    def test_error_paths_return_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert cli_main(
            ["prsq", "--data", str(missing), "--q", "1", "1"]
        ) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, arguments",
        [
            ("prsq", ["--q", "nan", "5000"]),
            ("prsq", ["--q", "5000", "5000", "--alpha", "7"]),
            ("explain", ["--q", "inf", "5000", "--an", "0"]),
            ("explain-certain", ["--q", "inf", "5000", "--an", "0"]),
        ],
        ids=["prsq-nan", "prsq-alpha", "explain-inf", "explain-certain-inf"],
    )
    def test_bad_query_arguments_exit_1(
        self, tmp_path, capsys, command, arguments
    ):
        """The one-shot commands check --q and --alpha as specs do."""
        kind = "certain" if command == "explain-certain" else "uncertain"
        data = tmp_path / "data.csv"
        cli_main(
            [
                "generate", "--kind", kind, "--n", "30", "--seed", "3",
                "--out", str(data),
            ]
        )
        capsys.readouterr()
        assert cli_main([command, "--data", str(data), *arguments]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_explain_answer_is_error(self, tmp_path, capsys):
        data = tmp_path / "cars.csv"
        cli_main(
            [
                "generate", "--kind", "certain", "--n", "30", "--dims", "2",
                "--seed", "7", "--out", str(data),
            ]
        )
        loaded = load_certain_csv(data)
        from repro.skyline.reverse import reverse_skyline

        member = reverse_skyline(loaded, [5000.0, 5000.0])[0]
        capsys.readouterr()
        assert cli_main(
            [
                "explain-certain", "--data", str(data), "--q", "5000", "5000",
                "--an", member,
            ]
        ) == 1
