"""Sharded engine core: partitioning, routing, index parity, plumbing.

Deterministic counterpart to the Hypothesis parity suite
(``test_sharded_parity.py``): each test pins one concrete contract of the
STR-sharded stack — :func:`~repro.index.bulk.str_partition` coverage,
:class:`~repro.uncertain.sharded.PartitionLayout` digests,
:class:`~repro.index.sharded.ShardedIndex` hit-set parity, delta routing
and rebalance triggers, layout-aware cache keys, executor payload
round-trips, and the serve/CLI surfaces.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.engine import (
    DatasetDelta,
    LRUCache,
    ParallelExecutor,
    PRSQSpec,
    Session,
)
from repro.geometry.rectangle import Rect
from repro.index import ShardedIndex, str_partition
from repro.index.packed import pack_window_groups
from repro.io.cli import main
from repro.uncertain import (
    CertainDataset,
    PartitionLayout,
    ShardedCertainDataset,
    ShardedDataset,
    UncertainDataset,
    UncertainObject,
    shard_dataset,
)

from tests.conftest import make_uncertain_dataset


def _windows(rng, count, dims=2, domain=10.0, extent=1.5):
    out = []
    for _ in range(count):
        lo = rng.uniform(0.0, domain - extent, size=dims)
        out.append(Rect(lo, lo + rng.uniform(0.1, extent, size=dims)))
    return out


# ----------------------------------------------------------------------
# str_partition
# ----------------------------------------------------------------------
class TestStrPartition:
    def test_partitions_cover_disjointly(self, rng):
        centers = rng.uniform(0.0, 10.0, size=(97, 3))
        groups = str_partition(centers, 8)
        assert len(groups) == 8
        assert all(g.size for g in groups)
        combined = np.concatenate(groups)
        assert sorted(combined.tolist()) == list(range(97))

    def test_deterministic(self, rng):
        centers = rng.uniform(0.0, 10.0, size=(50, 2))
        a = str_partition(centers, 4)
        b = str_partition(centers.copy(), 4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_duplicate_centers_still_fill_every_group(self):
        centers = np.zeros((20, 2))  # fully degenerate: one point
        groups = str_partition(centers, 5)
        assert len(groups) == 5
        assert all(g.size for g in groups)
        assert sorted(np.concatenate(groups).tolist()) == list(range(20))

    def test_more_groups_than_points_clamps_to_n(self):
        groups = str_partition(np.zeros((3, 2)), 4)
        assert len(groups) == 3
        assert all(g.size == 1 for g in groups)


# ----------------------------------------------------------------------
# PartitionLayout
# ----------------------------------------------------------------------
class TestPartitionLayout:
    def test_digest_stable_and_sensitive(self):
        layout = PartitionLayout(shards=(("a", "b"), ("c",)), requested=2)
        same = PartitionLayout(shards=(("a", "b"), ("c",)), requested=2)
        assert layout.digest == same.digest
        moved = PartitionLayout(shards=(("a",), ("b", "c")), requested=2)
        assert layout.digest != moved.digest
        rerequested = PartitionLayout(shards=(("a", "b"), ("c",)), requested=3)
        assert layout.digest != rerequested.digest

    def test_assignment_roundtrip(self, rng):
        dataset = make_uncertain_dataset(rng, 30)
        sharded = shard_dataset(dataset, 4)
        clone = shard_dataset(
            UncertainDataset(dataset.objects()),
            4,
            assignment=sharded.layout.assignment(),
        )
        assert clone.layout_digest() == sharded.layout_digest()
        assert [s.ids() for s in clone.shards()] == [
            s.ids() for s in sharded.shards()
        ]


# ----------------------------------------------------------------------
# ShardedDataset structure
# ----------------------------------------------------------------------
class TestShardedDataset:
    def test_shards_partition_the_dataset(self, rng):
        dataset = make_uncertain_dataset(rng, 40)
        sharded = shard_dataset(dataset, 8)
        assert sharded.shard_count == 8
        ids = [oid for shard in sharded.shards() for oid in shard.ids()]
        assert sorted(ids, key=repr) == sorted(dataset.ids(), key=repr)

    def test_content_digest_matches_unsharded(self, rng):
        dataset = make_uncertain_dataset(rng, 25)
        sharded = shard_dataset(UncertainDataset(dataset.objects()), 4)
        # the content digest names *what the data is*, not the partition
        assert sharded.content_digest() == dataset.content_digest()
        assert dataset.layout_digest() is None
        assert sharded.layout_digest() is not None

    def test_shard_digest_varies_with_k(self, rng):
        objects = make_uncertain_dataset(rng, 24).objects()
        k2 = ShardedDataset(objects, shards=2)
        k4 = ShardedDataset(objects, shards=4)
        assert k2.layout_digest() != k4.layout_digest()
        assert k2.content_digest() == k4.content_digest()

    def test_small_dataset_caps_shard_count(self):
        objects = [
            UncertainObject(i, [[float(i), float(i)]]) for i in range(3)
        ]
        sharded = ShardedDataset(objects, shards=8)
        assert sharded.requested_shards == 8
        assert 1 <= sharded.shard_count <= 3
        assert all(len(s) for s in sharded.shards())

    def test_certain_variant_keeps_points_synced(self, rng):
        points = rng.uniform(0.0, 10.0, size=(20, 2))
        sharded = ShardedCertainDataset(points, shards=4)
        assert isinstance(sharded, CertainDataset)
        np.testing.assert_array_equal(
            np.sort(sharded.points, axis=0), np.sort(points, axis=0)
        )
        shard_points = np.concatenate(
            [
                np.concatenate([obj.samples for obj in shard])
                for shard in sharded.shards()
            ]
        )
        np.testing.assert_array_equal(
            np.sort(shard_points, axis=0), np.sort(points, axis=0)
        )
        assert sharded.shard_count == 4
        assert sum(len(shard) for shard in sharded.shards()) == 20


# ----------------------------------------------------------------------
# ShardedIndex hit-set parity
# ----------------------------------------------------------------------
class TestShardedIndexParity:
    @pytest.mark.parametrize("plain_packed", [True, False])
    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_all_four_calls_match_plain_index(self, rng, plain_packed, k):
        # against the unsharded packed snapshot and the pointer tree it
        # freezes from (the reference)
        dataset = make_uncertain_dataset(rng, 60)
        sharded = shard_dataset(UncertainDataset(dataset.objects()), k)
        plain = dataset.packed if plain_packed else dataset.rtree
        index = sharded.spatial_index()
        assert isinstance(index, ShardedIndex)
        assert index.shard_count == sharded.shard_count

        windows = _windows(rng, 12)
        one = windows[0]
        assert sorted(index.range_search(one), key=repr) == sorted(
            plain.range_search(one), key=repr
        )
        sharded_many = index.range_search_many(windows)
        plain_many = plain.range_search_many(windows)
        for got, want in zip(sharded_many, plain_many):
            assert sorted(got, key=repr) == sorted(want, key=repr)
        groups = [windows[:5], [], windows[5:9], windows[9:]]
        hit_groups, entries = index.group_hits(*pack_window_groups(groups, 2))
        payloads = index.entry_payloads(entries)
        for g, group in enumerate(groups):
            got = [p for h, p in zip(hit_groups.tolist(), payloads) if h == g]
            assert sorted(got, key=repr) == plain.range_search_any(group)

    def test_empty_window_list(self, rng):
        sharded = shard_dataset(make_uncertain_dataset(rng, 12), 3)
        index = sharded.spatial_index()
        assert index.range_search_many([]) == []
        groups, entries = index.group_hits(*pack_window_groups([], 2))
        assert groups.size == entries.size == 0

    def test_window_pruning_counts(self, rng):
        from repro import obs

        sharded = shard_dataset(make_uncertain_dataset(rng, 60), 6)
        index = sharded.spatial_index()
        registry = obs.registry()
        before_pairs = registry.counter("shard.filter.window_pairs").value
        before_pruned = registry.counter(
            "shard.filter.window_pairs_pruned"
        ).value
        # a tiny corner window cannot intersect every shard root
        index.range_search_many([Rect((0.0, 0.0), (0.2, 0.2))])
        pairs = registry.counter("shard.filter.window_pairs").value
        pruned = registry.counter("shard.filter.window_pairs_pruned").value
        assert pairs - before_pairs == 6
        assert pruned - before_pruned >= 1


# ----------------------------------------------------------------------
# Delta routing and rebalancing
# ----------------------------------------------------------------------
class TestDeltaRouting:
    def test_update_routes_to_owner_without_relayout(self, rng):
        session = Session(make_uncertain_dataset(rng, 30), shards=4)
        layout = session.dataset.layout_digest()
        oid = session.dataset.ids()[7]
        session.apply(
            DatasetDelta.replacement(
                UncertainObject(oid, rng.uniform(0.0, 10.0, size=(2, 2)))
            )
        )
        assert session.dataset.layout_digest() == layout
        assert any(oid in shard.ids() for shard in session.dataset.shards())

    def test_insert_routes_to_nearest_shard(self, rng):
        session = Session(make_uncertain_dataset(rng, 30), shards=3)
        layout = session.dataset.layout_digest()
        session.apply(
            DatasetDelta.insertion(UncertainObject("new", [[5.0, 5.0]]))
        )
        sharded = session.dataset
        assert layout != sharded.layout_digest()  # membership changed
        owners = [s for s in sharded.shards() if "new" in s.ids()]
        assert len(owners) == 1

    def test_would_empty_shard_triggers_repartition(self, rng):
        dataset = make_uncertain_dataset(rng, 8)
        sharded = shard_dataset(dataset, 4)
        lone = min(sharded.shards(), key=len)
        victims = list(lone.ids())
        for oid in victims:
            sharded.delete_object(oid)
        assert len(sharded) == 8 - len(victims)
        assert all(len(s) for s in sharded.shards())

    def test_overflow_insert_triggers_repartition(self, rng):
        sharded = shard_dataset(make_uncertain_dataset(rng, 16), 4)
        limit = sharded._shard_limit()
        # pile clustered inserts onto one corner until some shard overflows
        for i in range(3 * limit):
            sharded.insert_object(
                UncertainObject(f"hot{i}", [[0.05 * (i % 7), 0.05 * (i % 5)]])
            )
        sizes = [len(s) for s in sharded.shards()]
        assert sum(sizes) == 16 + 3 * limit
        assert max(sizes) <= sharded._shard_limit()

    def test_query_parity_after_deltas(self, rng):
        spec = PRSQSpec(q=(5.0, 5.0), alpha=0.5, want="probabilities")
        session = Session(make_uncertain_dataset(rng, 20), shards=4)
        session.apply(
            DatasetDelta.insertion(UncertainObject("x", [[4.0, 4.5]]))
        )
        session.apply(DatasetDelta.deletion(session.dataset.ids()[0]))
        fresh = Session(UncertainDataset(session.dataset.objects()))
        live = session.query(spec).value.probabilities
        ref = fresh.query(spec).value.probabilities
        assert {k: v.hex() for k, v in live.items()} == {
            k: v.hex() for k, v in ref.items()
        }


# ----------------------------------------------------------------------
# Engine plumbing: cache keys, plans, executor payloads, snapshots
# ----------------------------------------------------------------------
class TestEnginePlumbing:
    def test_session_shards_kwarg_wraps_dataset(self, rng):
        session = Session(make_uncertain_dataset(rng, 20), shards=4)
        assert session.shard_count == 4
        plain = Session(make_uncertain_dataset(rng, 20))
        assert plain.shard_count == 1
        # shards=1 and None stay unsharded
        assert Session(make_uncertain_dataset(rng, 20), shards=1).shard_count == 1

    def test_layout_digest_in_cache_key(self, rng):
        dataset = make_uncertain_dataset(rng, 20)
        spec = PRSQSpec(q=(5.0, 5.0), alpha=0.5)
        shared = LRUCache(maxsize=64)
        k2 = Session(
            UncertainDataset(dataset.objects()), cache=shared, shards=2
        )
        k4 = Session(
            UncertainDataset(dataset.objects()), cache=shared, shards=4
        )
        first = k2.query(spec).value
        hits = shared.stats.hits
        second = k4.query(spec).value  # same fingerprint, different layout
        assert shared.stats.hits == hits  # must NOT alias k2's entry
        assert first.ids == second.ids
        assert k4.query(spec).value.ids == second.ids
        assert shared.stats.hits == hits + 1  # repeat within k=4 does hit

    def test_parallel_executor_roundtrip(self, rng):
        dataset = make_uncertain_dataset(rng, 24)
        specs = [
            PRSQSpec(q=(5.0, 5.0), alpha=0.5, want="probabilities"),
            PRSQSpec(q=(3.0, 7.0), alpha=0.3),
        ]
        serial = Session(UncertainDataset(dataset.objects()), shards=3)
        expected = [serial.query(s).value for s in specs]
        session = Session(UncertainDataset(dataset.objects()), shards=3)
        outcomes = session.execute_batch(specs, ParallelExecutor(workers=2))
        assert [o.error for o in outcomes] == [None, None]
        # worker outcomes come back value-serialized (plain dict / id list)
        probs = outcomes[0].value
        assert {k: v.hex() for k, v in probs.items()} == {
            k: v.hex() for k, v in expected[0].probabilities.items()
        }
        assert list(outcomes[1].value) == list(expected[1].ids)

    def test_read_snapshot_isolated_from_writer(self, rng):
        session = Session(make_uncertain_dataset(rng, 20), shards=4)
        spec = PRSQSpec(q=(5.0, 5.0), alpha=0.5, want="probabilities")
        snapshot = session.read_snapshot()
        before = snapshot.reader().query(spec).value.probabilities
        session.apply(
            DatasetDelta.insertion(UncertainObject("z", [[5.0, 5.1]]))
        )
        after = snapshot.reader().query(spec).value.probabilities
        assert {k: v.hex() for k, v in before.items()} == {
            k: v.hex() for k, v in after.items()
        }
        assert "z" in session.query(spec).value.probabilities


# ----------------------------------------------------------------------
# Serve + CLI surfaces
# ----------------------------------------------------------------------
class TestServeSharded:
    def test_info_and_query_parity(self, rng):
        from repro.serve.protocol import ServeConfig
        from repro.serve.service import DatasetService

        dataset = make_uncertain_dataset(rng, 24)
        spec = PRSQSpec(q=(5.0, 5.0), alpha=0.5)

        async def run(config):
            ds = UncertainDataset(dataset.objects())
            async with DatasetService({"default": ds}, config) as svc:
                envelope, _ = await svc.execute(spec)
                return envelope.to_dict()["value"], svc.state("default").info()

        sharded_value, info = asyncio.run(run(ServeConfig(shards=3)))
        plain_value, plain_info = asyncio.run(run(ServeConfig()))
        assert sharded_value == plain_value
        assert info["shards"] == 3
        assert "layout_digest" in info
        assert sum(info["shard_sizes"]) == 24
        assert plain_info["shards"] == 1
        assert "layout_digest" not in plain_info


class TestCliSharded:
    @pytest.fixture
    def queries(self, tmp_path):
        path = tmp_path / "queries.json"
        path.write_text(
            json.dumps(
                [
                    {"kind": "prsq", "q": [5.0, 5.0], "alpha": 0.5},
                    {
                        "kind": "prsq",
                        "q": [3.0, 7.0],
                        "alpha": 0.3,
                        "want": "probabilities",
                    },
                ]
            )
        )
        return path

    @pytest.fixture
    def data_csv(self, tmp_path):
        data = tmp_path / "data.csv"
        rc = main(
            [
                "generate", "--kind", "uncertain", "--n", "40",
                "--dims", "2", "--seed", "3", "--out", str(data),
            ]
        )
        assert rc == 0
        return data

    def test_batch_shards_bit_identical(
        self, data_csv, queries, capsys
    ):
        rc = main(
            ["batch", "--data", str(data_csv), "--queries", str(queries),
             "--json"]
        )
        assert rc == 0
        plain = json.loads(capsys.readouterr().out)
        rc = main(
            ["batch", "--data", str(data_csv), "--queries", str(queries),
             "--json", "--shards", "8"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        sharded = json.loads(captured.out)
        assert [e["value"] for e in sharded] == [e["value"] for e in plain]
        assert "shards=8" in captured.err

    def test_stats_exports_shard_gauge(self, data_csv, queries, capsys):
        rc = main(
            ["stats", "--data", str(data_csv), "--queries", str(queries),
             "--shards", "4"]
        )
        assert rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["gauges"].get("shard.count") == 4.0
        assert any(
            key.startswith("shard.filter.") for key in snapshot["counters"]
        )

    def test_reverse_skyline_certain_with_shards(self, tmp_path, capsys):
        data = tmp_path / "certain.csv"
        rc = main(
            ["generate", "--kind", "certain", "--n", "30", "--dims", "2",
             "--seed", "5", "--out", str(data)]
        )
        assert rc == 0
        queries = tmp_path / "rs.json"
        queries.write_text(
            json.dumps([{"kind": "reverse_skyline", "q": [5.0, 5.0]}])
        )
        capsys.readouterr()  # drain the generate banner
        rc = main(
            ["batch", "--data", str(data), "--queries", str(queries),
             "--dataset-kind", "certain", "--json"]
        )
        assert rc == 0
        plain = json.loads(capsys.readouterr().out)
        rc = main(
            ["batch", "--data", str(data), "--queries", str(queries),
             "--dataset-kind", "certain", "--json", "--shards", "4"]
        )
        assert rc == 0
        sharded = json.loads(capsys.readouterr().out)
        assert [e["value"] for e in sharded] == [e["value"] for e in plain]
