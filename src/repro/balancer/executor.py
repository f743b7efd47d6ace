"""The balancer loop: periodically plan and execute placement actions.

One :class:`Balancer` per store plays the HBase master's balancer
chore: on each tick (gated by the simulated clock) it aggregates
per-server load, splits write-hot regions, moves hot regions off
overloaded servers, merges cold adjacent ones, and records everything —
a :class:`~repro.observability.events.BalancerRunEvent` per run in
``sys.events`` and one row per decision in its bounded history, which
backs the ``sys.balancer`` virtual table.
"""

from __future__ import annotations

from collections import deque

from repro.balancer.planner import plan_merges, plan_moves, plan_splits
from repro.balancer.policy import (
    BalancerPolicy,
    imbalance,
    server_loads,
)
from repro.observability.events import BalancerRunEvent
from repro.observability.metrics import Counter, Gauge, collected

#: Decision rows kept for ``sys.balancer``.
HISTORY_CAPACITY = 256


class Balancer:
    """Plans and executes region placement on one :class:`KVStore`."""

    def __init__(self, store, policy: BalancerPolicy | None = None,
                 history_capacity: int = HISTORY_CAPACITY):
        self.store = store
        self.policy = policy if policy is not None else BalancerPolicy()
        self.runs = 0
        self.moves = 0
        self.splits = 0
        self.merges = 0
        #: Imbalance left by the last run.
        self.imbalance = 0.0
        #: ``sys.balancer`` rows: one per decision, newest last.
        self.history: deque[dict] = deque(maxlen=history_capacity)
        self._last_run_ms = float("-inf")

    # -- ticking -------------------------------------------------------------
    def maybe_tick(self) -> BalancerRunEvent | None:
        """Run one balance pass if the policy interval has elapsed."""
        now_ms = self.store.events.now_ms
        if now_ms - self._last_run_ms < self.policy.interval_ms:
            return None
        return self.tick()

    def tick(self) -> BalancerRunEvent:
        """Run one balance pass now: splits, then moves, then merges.

        Splits run first so a freshly split hot region's halves are
        visible to the move planner in the same pass.
        """
        store, policy = self.store, self.policy
        now_ms = store.events.now_ms
        self._last_run_ms = now_ms
        self.runs += 1
        run = self.runs
        loads_before = server_loads(store, now_ms)
        imbalance_before = imbalance(loads_before, policy)

        splits = 0
        for action in plan_splits(store, policy, now_ms):
            if store.table(action.table).split_region(action.region):
                splits += 1
                self._record(run, now_ms, "split", action.table,
                             action.region.region_id,
                             action.region.server, None, action.reason)

        loads = server_loads(store, now_ms)  # splits changed placement
        moves = self.apply_moves(
            run, now_ms, plan_moves(store, policy, loads, now_ms))

        merges = 0
        for action in plan_merges(store, policy, now_ms):
            merged = store.table(action.table).merge_regions(
                action.left, action.right)
            merges += 1
            self._record(run, now_ms, "merge", action.table,
                         merged.region_id, action.right.server,
                         merged.server, action.reason)

        self.moves += moves
        self.splits += splits
        self.merges += merges
        imbalance_after = imbalance(server_loads(store, now_ms), policy)
        self.imbalance = round(imbalance_after, 6)
        event = BalancerRunEvent(
            run=run, moves=moves, splits=splits, merges=merges,
            imbalance_before=round(imbalance_before, 3),
            imbalance_after=round(imbalance_after, 3))
        store.events.emit(event)
        return event

    def apply_moves(self, run: int, now_ms: float,
                    planned: list) -> int:
        """Execute planned moves, re-validating each destination.

        A destination picked from the load snapshot can stop being
        placeable before execution (its server crashed into
        ``recovering_servers`` mid-tick, e.g. via a fault plan firing
        between planning and acting); executing anyway would raise out
        of ``move_region`` and abort the whole pass.  Such moves are
        skipped with a recorded ``skip_move`` decision instead.
        """
        store = self.store
        moves = 0
        for action in planned:
            dest = action.dest
            if dest in store.dead_servers \
                    or dest in store.recovering_servers:
                self._record(run, now_ms, "skip_move", action.table,
                             action.region.region_id, action.source,
                             dest,
                             f"destination server {dest} stopped being "
                             f"placeable after planning")
                continue
            store.move_region(action.region, dest)
            moves += 1
            self._record(run, now_ms, "move", action.table,
                         action.region.region_id, action.source,
                         dest, action.reason)
        return moves

    def _record(self, run: int, sim_ms: float, action: str, table: str,
                region_id: int, src_server: int | None,
                dest_server: int | None, reason: str) -> None:
        self.history.append({
            "run": run, "sim_ms": round(sim_ms, 3), "action": action,
            "table": table, "region_id": region_id,
            "src_server": src_server, "dest_server": dest_server,
            "reason": reason})

    # -- introspection -------------------------------------------------------
    def metric_series(self):
        """``balancer.*`` registry series, read from the run counters."""
        for name in ("runs", "moves", "splits", "merges"):
            yield collected(Counter, f"balancer.{name}", getattr(self, name))
        yield collected(Gauge, "balancer.imbalance", self.imbalance)

    def history_rows(self) -> list[dict]:
        """``sys.balancer`` rows, oldest first."""
        return list(self.history)

    def snapshot(self) -> dict:
        now_ms = self.store.events.now_ms
        loads = server_loads(self.store, now_ms)
        return {
            "runs": self.runs, "moves": self.moves,
            "splits": self.splits, "merges": self.merges,
            "imbalance": round(imbalance(loads, self.policy), 3),
            "interval_ms": self.policy.interval_ms,
        }
