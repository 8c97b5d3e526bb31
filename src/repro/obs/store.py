"""Queryable sweep store: every benchmark and calibration run as an artifact.

Sweep results used to live in printed tables and ad-hoc JSON; this module
gives them a durable, queryable home — a stdlib-``sqlite3`` database.  The
compute entry points (``search_configurations``, ``sweep_replay``,
``measure_plan``, ``calibrate``, ``compare_policies``) only return results;
a caller that persists opens a :class:`SweepStore` and records them with
its writers (``record_run`` then ``record_plans`` / ``record_metric`` /
``record_fleet_results`` / ``record_trace``), as the ``repro.obs`` CLIs,
the fleet smoke gate and ``benchmarks/bench_fleet_sweep.py --store`` do.
Drivers query back out with :meth:`SweepStore.top_plans`,
:meth:`SweepStore.volume_by_link` and :meth:`SweepStore.run_history`.

Schema (version 3, ``PRAGMA user_version``):

    =============  =====================================================
    table          one row per
    =============  =====================================================
    ``runs``       recorded run — ``(kind, name)`` unique, so re-recording
                   a run **upserts**: the row is refreshed and its child
                   rows replaced (idempotent re-runs, no duplicate sweeps)
    ``plans``      ranked candidate of a configuration search (position,
                   axes, micro-batch, score, the overlap pair that ranked
                   it)
    ``metrics``    scalar measurement — optionally keyed by
                   ``op × phase × link × source`` for comm-volume buckets
    ``traces``     JSON artifact (a Chrome trace, a captured schedule)
    ``fleet_runs`` policy evaluated by the elastic fleet simulator
                   (goodput, lost-work split, restore counts per policy)
    =============  =====================================================

The database runs in WAL mode (readers never block a writer appending a
sweep), enforces foreign keys, and every write path is an idempotent
upsert keyed on the natural key of its table.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..perf.autotune import TunedPlan

__all__ = ["SCHEMA_VERSION", "RunRow", "StoredPlan", "FleetRunRow", "SweepStore"]

SCHEMA_VERSION = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY,
    kind        TEXT NOT NULL,
    name        TEXT NOT NULL,
    machine     TEXT NOT NULL DEFAULT '',
    host        TEXT NOT NULL DEFAULT '',
    created_at  REAL NOT NULL,
    params_json TEXT NOT NULL DEFAULT '{}',
    UNIQUE (kind, name)
);
CREATE TABLE IF NOT EXISTS plans (
    id             INTEGER PRIMARY KEY,
    run_id         INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    position       INTEGER NOT NULL,
    label          TEXT NOT NULL,
    strategy       TEXT NOT NULL,
    tp             INTEGER NOT NULL,
    sp             INTEGER NOT NULL DEFAULT 1,
    fsdp           INTEGER NOT NULL,
    dp             INTEGER NOT NULL,
    micro_batch    INTEGER NOT NULL,
    total_tflops   REAL NOT NULL,
    dp_overlap     REAL,
    fsdp_overlap   REAL,
    overlap_source TEXT NOT NULL DEFAULT '',
    UNIQUE (run_id, label)
);
CREATE INDEX IF NOT EXISTS idx_plans_run ON plans (run_id, position);
CREATE TABLE IF NOT EXISTS metrics (
    id           INTEGER PRIMARY KEY,
    run_id       INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    name         TEXT NOT NULL,
    value        REAL NOT NULL,
    unit         TEXT NOT NULL DEFAULT '',
    op           TEXT NOT NULL DEFAULT '',
    phase        TEXT NOT NULL DEFAULT '',
    link         TEXT NOT NULL DEFAULT '',
    source       TEXT NOT NULL DEFAULT '',
    context_json TEXT NOT NULL DEFAULT '{}',
    UNIQUE (run_id, name, op, phase, link, source)
);
CREATE INDEX IF NOT EXISTS idx_metrics_run ON metrics (run_id, name);
CREATE TABLE IF NOT EXISTS traces (
    id           INTEGER PRIMARY KEY,
    run_id       INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    name         TEXT NOT NULL,
    kind         TEXT NOT NULL DEFAULT 'chrome-trace',
    payload_json TEXT NOT NULL,
    UNIQUE (run_id, name)
);
CREATE TABLE IF NOT EXISTS fleet_runs (
    id                 INTEGER PRIMARY KEY,
    run_id             INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    policy             TEXT NOT NULL,
    position           INTEGER NOT NULL,
    horizon_steps      INTEGER NOT NULL,
    wall_seconds       REAL NOT NULL,
    productive_seconds REAL NOT NULL,
    recompute_seconds  REAL NOT NULL,
    save_seconds       REAL NOT NULL,
    restore_seconds    REAL NOT NULL,
    reshard_seconds    REAL NOT NULL,
    goodput            REAL NOT NULL,
    restores           INTEGER NOT NULL,
    saves              INTEGER NOT NULL,
    final_world        INTEGER NOT NULL,
    status             TEXT NOT NULL DEFAULT 'completed',
    UNIQUE (run_id, policy)
);
CREATE INDEX IF NOT EXISTS idx_fleet_run ON fleet_runs (run_id, position);
"""


@dataclass(frozen=True)
class RunRow:
    """One recorded run (a search, a measure, a calibration, a bench)."""

    id: int
    kind: str
    name: str
    machine: str
    host: str
    created_at: float
    params: dict

    @property
    def summary(self) -> str:
        return f"[{self.kind}] {self.name} on {self.machine or '?'} (run {self.id})"


@dataclass(frozen=True)
class FleetRunRow:
    """One policy's simulated outcome in a persisted fleet comparison."""

    run_id: int
    policy: str
    position: int
    horizon_steps: int
    wall_seconds: float
    productive_seconds: float
    recompute_seconds: float
    save_seconds: float
    restore_seconds: float
    reshard_seconds: float
    goodput: float
    restores: int
    saves: int
    final_world: int
    status: str


@dataclass(frozen=True)
class StoredPlan:
    """One ranked candidate of a persisted configuration search."""

    run_id: int
    position: int
    label: str
    strategy: str
    tp: int
    sp: int
    fsdp: int
    dp: int
    micro_batch: int
    total_tflops: float
    dp_overlap: float | None
    fsdp_overlap: float | None
    overlap_source: str


class SweepStore:
    """One sqlite sweep database (created on first open, WAL, versioned).

    Usable as a context manager; pass a filesystem path or ``":memory:"``.
    All writes commit immediately — a store handle can be held across a
    whole sweep and every recorded run is durable the moment the recording
    call returns.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(self.path)
        self._db.row_factory = sqlite3.Row
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA foreign_keys=ON")
        version = self._db.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, SCHEMA_VERSION):
            raise ValueError(
                f"sweep store {self.path} has schema version {version}; "
                f"this build reads version {SCHEMA_VERSION}"
            )
        with self._db:
            self._db.executescript(_SCHEMA)
            self._db.execute(f"PRAGMA user_version={SCHEMA_VERSION}")

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "SweepStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writers -----------------------------------------------------------
    def record_run(
        self,
        kind: str,
        name: str,
        machine: str = "",
        host: str = "",
        params: dict | None = None,
        fresh: bool = True,
    ) -> int:
        """Upsert one run row and return its id.

        ``(kind, name)`` is the natural key: recording the same run again
        refreshes the row in place and — with ``fresh=True`` (default) —
        drops its previous child rows, so re-running a sweep replaces its
        data instead of accumulating duplicates.
        """
        payload = json.dumps(params or {}, sort_keys=True)
        with self._db:
            cur = self._db.execute(
                """
                INSERT INTO runs (kind, name, machine, host, created_at, params_json)
                VALUES (?, ?, ?, ?, ?, ?)
                ON CONFLICT (kind, name) DO UPDATE SET
                    machine=excluded.machine, host=excluded.host,
                    created_at=excluded.created_at, params_json=excluded.params_json
                """,
                (kind, name, machine, host, time.time(), payload),
            )
            run_id = cur.lastrowid
            if not run_id:  # upsert path: fetch the surviving row id
                run_id = self._db.execute(
                    "SELECT id FROM runs WHERE kind=? AND name=?", (kind, name)
                ).fetchone()[0]
            if fresh:
                for table in ("plans", "metrics", "traces", "fleet_runs"):
                    self._db.execute(f"DELETE FROM {table} WHERE run_id=?", (run_id,))
        return int(run_id)

    def record_plans(self, run_id: int, tuned: Sequence["TunedPlan"]) -> None:
        """Persist a ranked candidate list (best first, as the search returns)."""
        rows = []
        for position, t in enumerate(tuned):
            ov = t.overlaps
            rows.append(
                (
                    run_id, position, t.plan.label, t.plan.strategy,
                    t.plan.tp, t.plan.sp, t.plan.fsdp, t.plan.dp,
                    t.micro_batch, t.total_tflops,
                    None if ov is None else ov.dp_overlap,
                    None if ov is None else ov.fsdp_overlap,
                    "" if ov is None else ov.dp.source,
                )
            )
        with self._db:
            self._db.executemany(
                """
                INSERT INTO plans (run_id, position, label, strategy, tp, sp,
                                   fsdp, dp, micro_batch, total_tflops,
                                   dp_overlap, fsdp_overlap, overlap_source)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (run_id, label) DO UPDATE SET
                    position=excluded.position, strategy=excluded.strategy,
                    tp=excluded.tp, sp=excluded.sp,
                    fsdp=excluded.fsdp, dp=excluded.dp,
                    micro_batch=excluded.micro_batch,
                    total_tflops=excluded.total_tflops,
                    dp_overlap=excluded.dp_overlap,
                    fsdp_overlap=excluded.fsdp_overlap,
                    overlap_source=excluded.overlap_source
                """,
                rows,
            )

    def record_metric(
        self,
        run_id: int,
        name: str,
        value: float,
        unit: str = "",
        op: str = "",
        phase: str = "",
        link: str = "",
        source: str = "",
        context: dict | None = None,
    ) -> None:
        """Upsert one scalar, keyed by ``(run, name, op, phase, link, source)``."""
        with self._db:
            self._db.execute(
                """
                INSERT INTO metrics (run_id, name, value, unit, op, phase,
                                     link, source, context_json)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (run_id, name, op, phase, link, source)
                DO UPDATE SET value=excluded.value, unit=excluded.unit,
                              context_json=excluded.context_json
                """,
                (
                    run_id, name, float(value), unit, op, phase, link, source,
                    json.dumps(context or {}, sort_keys=True),
                ),
            )

    def record_volume_report(self, run_id: int, report) -> None:
        """Persist a :class:`repro.obs.commvol.CommVolumeReport`.

        One ``wire_bytes`` and one ``seconds`` metric per bucket × source,
        queryable back out with :meth:`volume_by_link`.
        """
        for b in report.buckets:
            for source, wire, seconds in (
                ("analytic", b.analytic_wire, b.analytic_seconds),
                ("simulated", b.simulated_wire, b.simulated_seconds),
                ("measured", b.measured_wire, b.measured_vseconds),
            ):
                self.record_metric(
                    run_id, "wire_bytes", wire, unit="B",
                    op=b.op, phase=b.phase, link=b.link, source=source,
                )
                self.record_metric(
                    run_id, "seconds", seconds, unit="s",
                    op=b.op, phase=b.phase, link=b.link, source=source,
                )

    def record_fleet_results(self, run_id: int, results: Sequence) -> None:
        """Persist a fleet-simulator policy comparison (best goodput first).

        *results* are :class:`repro.elastic.fleet.FleetRunResult`-shaped
        objects (duck-typed, so :mod:`repro.obs` never imports
        :mod:`repro.elastic`); position records the ranking the simulator
        produced.
        """
        rows = [
            (
                run_id, r.policy, position, r.horizon_steps,
                r.wall_seconds, r.productive_seconds, r.recompute_seconds,
                r.save_seconds, r.restore_seconds, r.reshard_seconds,
                r.goodput, r.restores, r.saves, r.final_world, r.status,
            )
            for position, r in enumerate(results)
        ]
        with self._db:
            self._db.executemany(
                """
                INSERT INTO fleet_runs (run_id, policy, position, horizon_steps,
                                        wall_seconds, productive_seconds,
                                        recompute_seconds, save_seconds,
                                        restore_seconds, reshard_seconds,
                                        goodput, restores, saves, final_world,
                                        status)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (run_id, policy) DO UPDATE SET
                    position=excluded.position,
                    horizon_steps=excluded.horizon_steps,
                    wall_seconds=excluded.wall_seconds,
                    productive_seconds=excluded.productive_seconds,
                    recompute_seconds=excluded.recompute_seconds,
                    save_seconds=excluded.save_seconds,
                    restore_seconds=excluded.restore_seconds,
                    reshard_seconds=excluded.reshard_seconds,
                    goodput=excluded.goodput, restores=excluded.restores,
                    saves=excluded.saves, final_world=excluded.final_world,
                    status=excluded.status
                """,
                rows,
            )

    def record_trace(
        self, run_id: int, name: str, payload: dict, kind: str = "chrome-trace"
    ) -> None:
        """Upsert one JSON artifact (a Chrome trace, a captured schedule)."""
        with self._db:
            self._db.execute(
                """
                INSERT INTO traces (run_id, name, kind, payload_json)
                VALUES (?, ?, ?, ?)
                ON CONFLICT (run_id, name) DO UPDATE SET
                    kind=excluded.kind, payload_json=excluded.payload_json
                """,
                (run_id, name, kind, json.dumps(payload, sort_keys=True)),
            )

    # -- queries -----------------------------------------------------------
    def _run_row(self, row) -> RunRow:
        return RunRow(
            id=row["id"], kind=row["kind"], name=row["name"],
            machine=row["machine"], host=row["host"],
            created_at=row["created_at"], params=json.loads(row["params_json"]),
        )

    def run_history(
        self, kind: str | None = None, name: str | None = None, limit: int = 50
    ) -> list[RunRow]:
        """Recorded runs, newest first, optionally filtered by kind/name."""
        clauses, args = [], []
        if kind is not None:
            clauses.append("kind=?")
            args.append(kind)
        if name is not None:
            clauses.append("name=?")
            args.append(name)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._db.execute(
            f"SELECT * FROM runs {where} ORDER BY created_at DESC, id DESC LIMIT ?",
            (*args, int(limit)),
        ).fetchall()
        return [self._run_row(r) for r in rows]

    def latest_run(self, kind: str | None = None) -> RunRow | None:
        history = self.run_history(kind=kind, limit=1)
        return history[0] if history else None

    def top_plans(self, run_id: int | None = None, limit: int = 10) -> list[StoredPlan]:
        """The best candidates of one search run, best throughput first.

        ``run_id=None`` reads the newest ``search`` run.  Ordering is by the
        persisted score (ties by recorded position, so a re-query reproduces
        the search's own ranking exactly — the golden-podium contract).
        """
        if run_id is None:
            latest = self.latest_run(kind="search")
            if latest is None:
                return []
            run_id = latest.id
        rows = self._db.execute(
            """
            SELECT * FROM plans WHERE run_id=?
            ORDER BY total_tflops DESC, position ASC LIMIT ?
            """,
            (int(run_id), int(limit)),
        ).fetchall()
        return [
            StoredPlan(
                run_id=r["run_id"], position=r["position"], label=r["label"],
                strategy=r["strategy"], tp=r["tp"], sp=r["sp"],
                fsdp=r["fsdp"], dp=r["dp"],
                micro_batch=r["micro_batch"], total_tflops=r["total_tflops"],
                dp_overlap=r["dp_overlap"], fsdp_overlap=r["fsdp_overlap"],
                overlap_source=r["overlap_source"],
            )
            for r in rows
        ]

    def fleet_ranking(self, run_id: int | None = None) -> list[FleetRunRow]:
        """One fleet comparison's policies, best goodput first.

        ``run_id=None`` reads the newest ``fleet`` run.  Ordering is by
        persisted goodput (ties by recorded position), so re-querying
        reproduces the simulator's own deterministic ranking.
        """
        if run_id is None:
            latest = self.latest_run(kind="fleet")
            if latest is None:
                return []
            run_id = latest.id
        rows = self._db.execute(
            """
            SELECT * FROM fleet_runs WHERE run_id=?
            ORDER BY goodput DESC, position ASC
            """,
            (int(run_id),),
        ).fetchall()
        return [
            FleetRunRow(
                run_id=r["run_id"], policy=r["policy"], position=r["position"],
                horizon_steps=r["horizon_steps"],
                wall_seconds=r["wall_seconds"],
                productive_seconds=r["productive_seconds"],
                recompute_seconds=r["recompute_seconds"],
                save_seconds=r["save_seconds"],
                restore_seconds=r["restore_seconds"],
                reshard_seconds=r["reshard_seconds"],
                goodput=r["goodput"], restores=r["restores"], saves=r["saves"],
                final_world=r["final_world"], status=r["status"],
            )
            for r in rows
        ]

    def volume_by_link(
        self,
        run_id: int,
        name: str = "wire_bytes",
        source: str = "measured",
    ) -> dict[tuple[str, str, str], float]:
        """Comm-volume buckets of one run: ``(op, phase, link) -> value``."""
        rows = self._db.execute(
            """
            SELECT op, phase, link, value FROM metrics
            WHERE run_id=? AND name=? AND source=? AND link != ''
            ORDER BY op, phase, link
            """,
            (int(run_id), name, source),
        ).fetchall()
        return {(r["op"], r["phase"], r["link"]): r["value"] for r in rows}

    def metrics_for(self, run_id: int) -> dict[str, float]:
        """Every unbucketed scalar of one run (``name -> value``)."""
        rows = self._db.execute(
            "SELECT name, value FROM metrics WHERE run_id=? AND link='' ORDER BY name",
            (int(run_id),),
        ).fetchall()
        return {r["name"]: r["value"] for r in rows}

    def get_trace(self, run_id: int, name: str) -> dict | None:
        row = self._db.execute(
            "SELECT payload_json FROM traces WHERE run_id=? AND name=?",
            (int(run_id), name),
        ).fetchone()
        return None if row is None else json.loads(row["payload_json"])

    def trace_names(self, run_id: int) -> list[str]:
        rows = self._db.execute(
            "SELECT name FROM traces WHERE run_id=? ORDER BY name", (int(run_id),)
        ).fetchall()
        return [r["name"] for r in rows]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        runs = self._db.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
        return f"SweepStore({self.path!r}, runs={runs})"

