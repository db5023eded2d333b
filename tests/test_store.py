"""The content-addressed on-disk trace store."""

from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.api.config import resolve_store_root
from repro.channel import OFFICE, ChannelTrace, TraceStore, generate_trace, get_store
from repro.channel import store as store_mod
from repro.core.architecture import HintSeries
from repro.sensors import mixed_mobility_script


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "store")


@pytest.fixture
def trace():
    return generate_trace(OFFICE, mixed_mobility_script(2.0), seed=9)


class TestKeying:
    def test_key_is_stable(self):
        a = TraceStore.key("trace", env="office", mode="mixed", seed=1,
                           duration_s=20.0)
        b = TraceStore.key("trace", env="office", mode="mixed", seed=1,
                           duration_s=20.0)
        assert a == b

    def test_key_separates_recipes(self):
        base = dict(env="office", mode="mixed", seed=1, duration_s=20.0)
        k0 = TraceStore.key("trace", **base)
        assert k0 != TraceStore.key("trace", **{**base, "seed": 2})
        assert k0 != TraceStore.key("trace", **{**base, "mode": "static"})
        assert k0 != TraceStore.key("hints", **base)

    def test_key_order_independent(self):
        assert TraceStore.key("t", a=1, b=2) == TraceStore.key("t", b=2, a=1)

    def test_key_covers_generator_fingerprint(self, monkeypatch):
        """Keys must change when the generator source changes, so a
        cache restored across commits can't serve stale physics."""
        before = TraceStore.key("trace", seed=1)
        monkeypatch.setattr(store_mod, "generator_fingerprint",
                            lambda: "different-source-tree")
        assert TraceStore.key("trace", seed=1) != before

    def test_generator_fingerprint_stable(self):
        from repro.channel.store import generator_fingerprint

        a = generator_fingerprint()
        assert a == generator_fingerprint()
        int(a, 16)  # hex digest

    def test_fingerprint_covers_the_recipe_modules(self):
        # The code that turns key fields into motion scripts lives
        # outside the generator packages; editing it must orphan entries.
        import repro.experiments.common
        import repro.network.traces
        import repro.vehicular.mobility

        sources = {path.resolve() for path in store_mod.fingerprint_sources()}
        for module in (repro.experiments.common, repro.network.traces,
                       repro.vehicular.mobility, repro.channel.tracegen,
                       repro.core.movement):
            assert Path(module.__file__).resolve() in sources


class TestRoundTrip:
    def test_trace_roundtrip_exact(self, store, trace):
        key = store.key("trace", seed=9)
        assert store.get_trace(key) is None
        store.put_trace(key, trace)
        loaded = store.get_trace(key)
        assert loaded is not None
        assert np.array_equal(loaded.fates, trace.fates)
        assert np.array_equal(loaded.snr_db, trace.snr_db)
        assert np.array_equal(loaded.moving, trace.moving)
        assert loaded.environment == trace.environment
        assert loaded.seed == trace.seed
        assert loaded.slot_s == trace.slot_s

    def test_series_roundtrip(self, store):
        times = np.array([0.0, 0.5, 1.0])
        values = np.array([False, True, False])
        key = store.key("hints", seed=3)
        assert store.get_series(key) is None
        store.put_series(key, times, values)
        t, v = store.get_series(key)
        series = HintSeries(times_s=t, values=v)
        assert series.value_at(0.7) == True  # noqa: E712 - numpy bool

    def test_corrupt_entry_is_a_miss(self, store, trace):
        key = store.key("trace", seed=9)
        store.put_trace(key, trace)
        path = store.path_for(key)
        path.write_bytes(b"not an npz archive")
        assert store.get_trace(key) is None
        assert not path.exists()  # corrupt entry removed
        # And the slot is reusable afterwards.
        store.put_trace(key, trace)
        assert store.get_trace(key) is not None


class TestDisabledStore:
    def test_none_root_never_stores(self, trace):
        store = TraceStore(None)
        assert not store.enabled
        key = store.key("trace", seed=1)
        store.put_trace(key, trace)  # silently a no-op
        assert store.get_trace(key) is None

    # Each test starts with no process store installed, so get_store()
    # falls back to the environment; teardown restores the old one.
    def test_env_var_off(self, monkeypatch):
        monkeypatch.setattr(store_mod, "_STORE", None)
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        assert resolve_store_root() is None
        assert not get_store().enabled
        assert not Session().store.enabled

    def test_env_var_path(self, monkeypatch, tmp_path):
        monkeypatch.setattr(store_mod, "_STORE", None)
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "alt"))
        assert resolve_store_root() == tmp_path / "alt"
        assert get_store().root == tmp_path / "alt"
        assert Session().store.root == tmp_path / "alt"

    def test_env_var_unset_is_the_working_directory_default(self,
                                                            monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        assert resolve_store_root() == Path(".cache") / "trace-store"


class TestCachedTraceLayer:
    def test_cached_trace_hits_disk_from_a_fresh_store(self, monkeypatch,
                                                       tmp_path):
        from repro.experiments import common

        monkeypatch.setattr(store_mod, "_STORE", TraceStore(tmp_path / "layer"))
        first = common.cached_trace("office", "mixed", 31, 2.0)
        assert common.cached_trace("office", "mixed", 31, 2.0) is first
        # A fresh store on the same root has an empty memo: the next
        # call must load from disk, not regenerate.
        store_mod.install_store(TraceStore(tmp_path / "layer"))
        monkeypatch.setattr(common, "generate_trace", _no_generation)
        second = common.cached_trace("office", "mixed", 31, 2.0)
        assert second is not first
        assert np.array_equal(first.fates, second.fates)
        assert np.array_equal(first.snr_db, second.snr_db)

    def test_memo_is_per_store_and_bounded(self, monkeypatch, tmp_path):
        monkeypatch.setattr(store_mod, "MEMO_ENTRIES", 2)
        a, b = TraceStore(tmp_path / "a"), TraceStore(None)
        calls = []

        def make(tag):
            return lambda: calls.append(tag) or HintSeries(
                times_s=np.array([0.0]), values=np.array([tag]))

        first = a.hint_series("hints", make(1), seed=1)
        assert a.hint_series("hints", make(9), seed=1) is first
        # Another store neither serves nor is served by a's memo.
        b.hint_series("hints", make(2), seed=1)
        assert calls == [1, 2]
        for seed in (2, 3):
            a.hint_series("hints", make(seed), seed=seed)
        assert len(a._memo) == 2
        # The evicted entry comes back from disk, not the generator.
        again = a.hint_series("hints", make(9), seed=1)
        assert again is not first and again.values[0] == 1
        assert calls == [1, 2, 2, 3]


def _no_generation(*args, **kwargs):
    raise AssertionError("the artefact should have come from disk")
