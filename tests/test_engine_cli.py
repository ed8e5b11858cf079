"""End-to-end smoke tests for the ``batch`` CLI subcommand."""

import json

import pytest

from repro.io.cli import build_parser, main
from repro.io.csvio import load_certain_csv
from repro.skyline.reverse import reverse_skyline_bruteforce


@pytest.fixture
def uncertain_csv(tmp_path):
    data = tmp_path / "data.csv"
    rc = main(
        [
            "generate",
            "--kind",
            "uncertain",
            "--n",
            "40",
            "--dims",
            "2",
            "--seed",
            "3",
            "--out",
            str(data),
        ]
    )
    assert rc == 0
    return data


def write_queries(tmp_path, specs):
    path = tmp_path / "queries.json"
    path.write_text(json.dumps(specs))
    return path


class TestBatchRegistration:
    def test_batch_in_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "batch" in capsys.readouterr().out

    def test_batch_help_flags(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--help"])
        out = capsys.readouterr().out
        for flag in ("--workers", "--queries", "--cache-size"):
            assert flag in out


class TestBatchEndToEnd:
    def test_text_output(self, tmp_path, uncertain_csv, capsys):
        queries = write_queries(
            tmp_path,
            [
                {"kind": "prsq", "q": [5000, 5000], "alpha": 0.5,
                 "want": "non_answers"},
                {"kind": "prsq", "q": [5000, 5000], "alpha": 0.8,
                 "want": "answers"},
                {"kind": "prsq", "q": [5000, 5000], "alpha": 0.5,
                 "want": "non_answers"},
            ],
        )
        rc = main(
            ["batch", "--data", str(uncertain_csv), "--queries", str(queries)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "[computed] prsq" in captured.out
        assert "[cached] prsq" in captured.out
        assert "3 queries" in captured.err
        assert "cache hits=" in captured.err

    def test_json_output_with_causality(self, tmp_path, uncertain_csv, capsys):
        # Discover a real non-answer first, then explain it in the batch.
        rc = main(
            [
                "batch",
                "--data",
                str(uncertain_csv),
                "--queries",
                str(
                    write_queries(
                        tmp_path,
                        [{"kind": "prsq", "q": [5000, 5000], "alpha": 0.5,
                          "want": "non_answers"}],
                    )
                ),
                "--json",
            ]
        )
        assert rc == 0
        envelope = json.loads(capsys.readouterr().out)[0]
        assert envelope["schema_version"] == 2
        assert envelope["ok"] is True
        non_answers = envelope["value"]["ids"]
        assert non_answers

        queries = write_queries(
            tmp_path,
            [
                {"kind": "prsq", "q": [5000, 5000], "alpha": 0.5},
                {"kind": "causality", "an": non_answers[0],
                 "q": [5000, 5000], "alpha": 0.5},
            ],
        )
        rc = main(
            [
                "batch",
                "--data",
                str(uncertain_csv),
                "--queries",
                str(queries),
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)
        assert len(payload) == 2
        assert payload[0]["spec"]["kind"] == "prsq"
        assert payload[1]["spec"]["kind"] == "causality"
        assert payload[1]["value"]["an"] == non_answers[0]
        assert isinstance(payload[1]["value"]["causes"], list)

    def test_parallel_workers_match_serial(self, tmp_path, uncertain_csv, capsys):
        queries = write_queries(
            tmp_path,
            [
                {"kind": "prsq", "q": [4800 + 50 * i, 5100], "alpha": 0.5}
                for i in range(4)
            ],
        )
        rc = main(
            ["batch", "--data", str(uncertain_csv), "--queries", str(queries),
             "--json"]
        )
        assert rc == 0
        serial = json.loads(capsys.readouterr().out)
        rc = main(
            ["batch", "--data", str(uncertain_csv), "--queries", str(queries),
             "--json", "--workers", "2"]
        )
        assert rc == 0
        parallel = json.loads(capsys.readouterr().out)
        assert [o["value"] for o in serial] == [o["value"] for o in parallel]

    def test_no_cache_flag(self, tmp_path, uncertain_csv, capsys):
        queries = write_queries(
            tmp_path,
            [{"kind": "prsq", "q": [5000, 5000], "alpha": 0.5}] * 2,
        )
        rc = main(
            ["batch", "--data", str(uncertain_csv), "--queries", str(queries),
             "--cache-size", "0"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "[cached]" not in captured.out
        assert "cache hits=0" in captured.err

    def test_bad_queries_file(self, tmp_path, uncertain_csv, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "prsq"}))  # not an array
        rc = main(
            ["batch", "--data", str(uncertain_csv), "--queries", str(bad)]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_per_spec_error_captured(self, tmp_path, uncertain_csv, capsys):
        queries = write_queries(
            tmp_path,
            [
                {"kind": "prsq", "q": [5000, 5000], "alpha": 0.5},
                {"kind": "causality", "an": "no-such-id",
                 "q": [5000, 5000], "alpha": 0.5},
            ],
        )
        rc = main(
            ["batch", "--data", str(uncertain_csv), "--queries", str(queries)]
        )
        captured = capsys.readouterr()
        assert rc == 1  # at least one spec failed
        assert "[computed] prsq" in captured.out  # the good one still ran
        assert "[error] causality" in captured.out
        assert "no-such-id" in captured.out
        assert "1 failed" in captured.err

    def test_unhashable_spec_field_clean_error(
        self, tmp_path, uncertain_csv, capsys
    ):
        queries = write_queries(
            tmp_path,
            [{"kind": "causality", "an": [1, 2], "q": [5000, 5000],
              "alpha": 0.5}],
        )
        rc = main(
            ["batch", "--data", str(uncertain_csv), "--queries", str(queries)]
        )
        assert rc == 1
        assert "hashable" in capsys.readouterr().err

    def test_cache_size_zero_disables_cache(
        self, tmp_path, uncertain_csv, capsys
    ):
        queries = write_queries(
            tmp_path,
            [{"kind": "prsq", "q": [5000, 5000], "alpha": 0.5}] * 2,
        )
        rc = main(
            ["batch", "--data", str(uncertain_csv), "--queries", str(queries),
             "--cache-size", "0"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "[cached]" not in captured.out

    def test_unknown_kind_reports_error(self, tmp_path, uncertain_csv, capsys):
        queries = write_queries(tmp_path, [{"kind": "teleport", "q": [1, 2]}])
        rc = main(
            ["batch", "--data", str(uncertain_csv), "--queries", str(queries)]
        )
        assert rc == 1
        assert "unknown query kind" in capsys.readouterr().err


class TestCertainBatch:
    def test_reverse_skyline_certain(self, tmp_path, capsys):
        data = tmp_path / "certain.csv"
        rc = main(
            ["generate", "--kind", "certain", "--n", "30", "--dims", "2",
             "--seed", "5", "--out", str(data)]
        )
        assert rc == 0
        queries = write_queries(
            tmp_path, [{"kind": "reverse_skyline", "q": [5.0, 5.0]}]
        )
        capsys.readouterr()  # drain the generate banner
        rc = main(
            ["batch", "--data", str(data), "--queries", str(queries),
             "--dataset-kind", "certain", "--json"]
        )
        assert rc == 0
        (envelope,) = json.loads(capsys.readouterr().out)
        assert envelope["ok"]
        expected = reverse_skyline_bruteforce(load_certain_csv(data), [5.0, 5.0])
        assert expected and envelope["value"]["ids"] == expected


class TestBatchStreaming:
    def _stream(self, uncertain_csv, tmp_path, capsys, specs, extra=()):
        queries = write_queries(tmp_path, specs)
        rc = main(
            ["batch", "--data", str(uncertain_csv), "--queries", str(queries),
             "--stream", *extra]
        )
        captured = capsys.readouterr()
        lines = [line for line in captured.out.splitlines() if line.strip()]
        return rc, lines, captured.err

    def test_ndjson_one_envelope_per_spec(self, tmp_path, uncertain_csv, capsys):
        from repro.api import QueryResult

        specs = [
            {"kind": "prsq", "q": [5000, 5000], "alpha": 0.5,
             "want": "non_answers"},
            {"kind": "prsq", "q": [5000, 5000], "alpha": 0.8},
            {"kind": "causality", "an": "no-such-id",
             "q": [5000, 5000], "alpha": 0.5},
        ]
        rc, lines, err = self._stream(uncertain_csv, tmp_path, capsys, specs)
        assert rc == 1  # the bad causality spec failed
        assert len(lines) == len(specs)
        envelopes = [QueryResult.from_dict(json.loads(line)) for line in lines]
        assert [e.kind for e in envelopes] == ["prsq", "prsq", "causality"]
        assert envelopes[0].ok and envelopes[1].ok and not envelopes[2].ok
        assert envelopes[2].error.code == "unknown_object"
        # every line re-serializes byte-identically (valid NDJSON envelope)
        for line, env in zip(lines, envelopes):
            assert json.dumps(env.to_dict()) == line
        assert "1 failed" in err

    def test_stream_matches_json_values(self, tmp_path, uncertain_csv, capsys):
        specs = [
            {"kind": "prsq", "q": [4800 + 50 * i, 5100], "alpha": 0.5}
            for i in range(3)
        ]
        queries = write_queries(tmp_path, specs)
        rc = main(
            ["batch", "--data", str(uncertain_csv), "--queries", str(queries),
             "--json"]
        )
        assert rc == 0
        as_array = json.loads(capsys.readouterr().out)
        rc, lines, _err = self._stream(uncertain_csv, tmp_path, capsys, specs)
        assert rc == 0
        assert [json.loads(line)["value"] for line in lines] == [
            e["value"] for e in as_array
        ]

    def test_stream_with_workers(self, tmp_path, uncertain_csv, capsys):
        specs = [
            {"kind": "prsq", "q": [4800 + 50 * i, 5100], "alpha": 0.5}
            for i in range(4)
        ]
        rc, lines, _err = self._stream(
            uncertain_csv, tmp_path, capsys, specs, extra=("--workers", "2")
        )
        assert rc == 0
        assert len(lines) == len(specs)
        alphas = [json.loads(line)["spec"]["q"][0] for line in lines]
        assert alphas == [4800.0, 4850.0, 4900.0, 4950.0]  # input order kept

    def test_stream_and_json_mutually_exclusive(self, tmp_path, uncertain_csv):
        queries = write_queries(
            tmp_path, [{"kind": "prsq", "q": [5000, 5000], "alpha": 0.5}]
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["batch", "--data", str(uncertain_csv), "--queries",
                 str(queries), "--json", "--stream"]
            )
