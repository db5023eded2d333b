"""Content-addressed on-disk store for generated channel artefacts.

Trace generation (fading synthesis + per-slot fate draws) dominates the
cost of many experiment drivers, and the same (environment, motion,
seed, duration) traces are shared between figures, between repeated
runs, and between worker processes.  This module is the one place that
decides where such an artefact lives and how it is produced: a
:class:`TraceStore` persists each generated
:class:`~repro.channel.trace.ChannelTrace` (and the hint series derived
from the same motion script) as a compressed ``.npz`` addressed by a
digest of its generating recipe, and :meth:`TraceStore.trace` /
:meth:`TraceStore.hint_series` look an artefact up in the store's
in-process memo, then on disk, and only then generate and persist it.
Every public memoiser (``cached_trace``, ``station_hints``, ...) is one
of those two calls with its recipe's key fields and a generator.

The process store
-----------------
:func:`get_store` returns the store the memoisers use.  A
:class:`repro.api.Session` owns its own store and installs it (at
construction and on every :meth:`~repro.api.Session.map` /
:meth:`~repro.api.Session.scatter`); pool workers are handed the root
explicitly by their initializer.  Without a session, the first lookup
installs the default from ``REPRO_TRACE_STORE``
(:func:`repro.api.config.resolve_store_root`): unset means
``.cache/trace-store`` under the working directory, ``off`` disables
persistence.  Because the memo belongs to the store, switching stores
can neither serve another store's artefact nor skip writing to the new
one.

Layout and invalidation
-----------------------
Files live under ``<root>/<digest[:2]>/<digest>.npz``.  The digest
covers a schema-version salt (:data:`STORE_VERSION`) and
:func:`generator_fingerprint`, a digest of every source file that
shapes an artefact, so editing generation code orphans old entries;
deleting the store directory is always safe -- entries are regenerated
on demand.  Writes go through a temp file + ``os.replace`` so concurrent
workers never observe a torn archive; unreadable entries are treated as
misses and removed.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections import OrderedDict
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from ..core.architecture import HintSeries
from .trace import ChannelTrace

__all__ = [
    "STORE_VERSION",
    "TraceStore",
    "fingerprint_sources",
    "generator_fingerprint",
    "get_store",
    "install_store",
]

#: Bump for semantic invalidations that :func:`generator_fingerprint`
#: cannot see (e.g. a schema change in how entries are stored).
STORE_VERSION = 1

#: Artefacts a store keeps in memory (least recently used evicted).
MEMO_ENTRIES = 256

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent
#: Modules outside the generator packages whose code turns key fields
#: into motion scripts (the evaluation modes, the station recipes and
#: the vehicular mobility model).
_RECIPE_MODULES = ("experiments/common.py", "network/traces.py",
                   "vehicular/mobility.py")


def fingerprint_sources() -> list[Path]:
    """Every source file :func:`generator_fingerprint` covers: the
    generator packages (channel/sensors/core) and the recipe modules."""
    paths = [path for package in ("channel", "sensors", "core")
             for path in sorted((_PACKAGE_ROOT / package).rglob("*.py"))]
    return paths + [_PACKAGE_ROOT / module for module in _RECIPE_MODULES]


@lru_cache(maxsize=1)
def generator_fingerprint() -> str:
    """Digest of :func:`fingerprint_sources`, read by path.

    Folded into every store key, so editing trace/hint generation code
    or a recipe orphans old entries automatically -- no manual version
    bump, and a CI cache restored across commits can never serve
    artefacts produced by different physics.
    """
    digest = hashlib.blake2b(digest_size=8)
    for path in fingerprint_sources():
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TraceStore:
    """A content-addressed ``.npz`` cache of traces and hint series,
    with an in-process memo of the artefacts it served."""

    def __init__(self, root: str | Path | None = None) -> None:
        self._root = Path(root) if root is not None else None
        self._memo: OrderedDict[str, object] = OrderedDict()

    @property
    def root(self) -> Path | None:
        return self._root

    @property
    def enabled(self) -> bool:
        return self._root is not None

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    @staticmethod
    def key(kind: str, **fields) -> str:
        """Digest of a generation recipe.

        ``fields`` must be the full set of parameters that determine the
        artefact's content; the digest also covers the generator source
        fingerprint, so entries never outlive the code that made them.
        """
        parts = [f"v{STORE_VERSION}", generator_fingerprint(), kind]
        parts += [f"{k}={fields[k]!r}" for k in sorted(fields)]
        blob = "|".join(parts).encode()
        return hashlib.blake2b(blob, digest_size=16).hexdigest()

    def path_for(self, key: str) -> Path:
        if self._root is None:
            raise RuntimeError("store is disabled (no root)")
        return self._root / key[:2] / f"{key}.npz"

    # ------------------------------------------------------------------
    # Raw array round-trip
    # ------------------------------------------------------------------
    def load_arrays(self, key: str) -> dict[str, np.ndarray] | None:
        """Arrays under ``key``, or ``None`` on miss/corruption."""
        if self._root is None:
            return None
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                return {name: data[name] for name in data.files}
        except Exception:
            # Torn/corrupt entry (e.g. interrupted writer on a platform
            # without atomic replace): drop it and regenerate.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def save_arrays(self, key: str, **arrays: np.ndarray) -> None:
        """Atomically persist ``arrays`` under ``key`` (best effort)."""
        if self._root is None:
            return
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    np.savez_compressed(handle, **arrays)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full filesystem must never fail the caller:
            # the store is an accelerator, not a dependency.
            return

    # ------------------------------------------------------------------
    # Memoised artefacts: memo, else disk, else generate and persist
    # ------------------------------------------------------------------
    def trace(self, kind: str, generate: Callable[[], ChannelTrace], /,
              **fields) -> ChannelTrace:
        """The trace of the recipe ``(kind, fields)``; ``generate()``
        runs only when neither the memo nor the disk holds it."""
        return self._memoised(self.key(kind, **fields), self.get_trace,
                              generate, self.put_trace)

    def hint_series(self, kind: str, generate: Callable[[], HintSeries], /,
                    **fields) -> HintSeries:
        """The hint series of the recipe ``(kind, fields)`` (the
        :meth:`trace` twin)."""

        def load(key: str) -> HintSeries | None:
            stored = self.get_series(key)
            return None if stored is None else HintSeries(*stored)

        def save(key: str, series: HintSeries) -> None:
            self.put_series(key, series.times_s, series.values)

        return self._memoised(self.key(kind, **fields), load, generate, save)

    def _memoised(self, key: str, load, generate, save):
        memo = self._memo
        if key in memo:
            memo.move_to_end(key)
            return memo[key]
        value = load(key)
        if value is None:
            value = generate()
            save(key, value)
        memo[key] = value
        if len(memo) > MEMO_ENTRIES:
            memo.popitem(last=False)
        return value

    # ------------------------------------------------------------------
    # Typed round-trips
    # ------------------------------------------------------------------
    def get_trace(self, key: str) -> ChannelTrace | None:
        arrays = self.load_arrays(key)
        if arrays is None:
            return None
        try:
            # Shares ChannelTrace's own npz schema, so trace fields
            # added there round-trip here without a second edit.
            return ChannelTrace.from_arrays(arrays)
        except (KeyError, ValueError):
            return None

    def put_trace(self, key: str, trace: ChannelTrace) -> None:
        self.save_arrays(key, **trace.to_arrays())

    def get_series(self, key: str) -> tuple[np.ndarray, np.ndarray] | None:
        """A stored (times_s, values) pair, e.g. a hint series."""
        arrays = self.load_arrays(key)
        if arrays is None:
            return None
        try:
            return arrays["times_s"], arrays["values"]
        except KeyError:
            return None

    def put_series(self, key: str, times_s: np.ndarray, values: np.ndarray) -> None:
        self.save_arrays(key, times_s=np.asarray(times_s),
                         values=np.asarray(values))


_STORE: TraceStore | None = None


def install_store(store: TraceStore) -> None:
    """Make ``store`` the process store :func:`get_store` returns.

    :class:`repro.api.Session` calls this with its own store; pool
    workers call it from their initializer with the root they are given.
    """
    global _STORE
    _STORE = store


def get_store() -> TraceStore:
    """The process store: the last one installed, else (on first use)
    the environment's default from ``REPRO_TRACE_STORE``."""
    global _STORE
    if _STORE is None:
        # Deferred: repro.api imports this module.
        from ..api.config import resolve_store_root

        _STORE = TraceStore(resolve_store_root())
    return _STORE
