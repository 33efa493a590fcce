"""Per-plan compilation of polluter chains into fused batch kernels.

:func:`compile_pipeline` walks a bound
:class:`~repro.core.pipeline.PollutionPipeline` once and emits one kernel
per polluter. A kernel processes a whole record slab polluter-major:
evaluate the condition across the batch (vectorized where a bulk draw is
provably draw-identical to the scalar path), then run the error only on the
fired rows.

What gets vectorized — and why it is exact
------------------------------------------
* **Condition masks.** ``AlwaysCondition``/``NeverCondition`` need no
  draws. ``ProbabilityCondition`` and ``PatternProbabilityCondition``
  evaluate as ``rng.random() < p``; one bulk ``rng.random(n)`` produces the
  same ``n`` values and the same generator state as ``n`` scalar calls, so
  the mask is draw-for-draw identical. The bulk path is gated on the exact
  ``evaluate`` method being the library implementation — a subclass that
  overrides ``evaluate`` falls back to the per-row loop, which *is* the
  sequential computation in the sequential order and therefore always
  correct (this also covers stateful conditions such as ``EveryNthCondition``
  and ``BurstCondition``: rows pass through in arrival order).
* **Gaussian noise.** ``GaussianNoise`` draws one normal per non-null
  numeric target in record-major order; the kernel counts those targets
  across the fired rows and performs one bulk ``rng.normal(0, sigma, k)``.
  Draw values are converted back to Python floats (``tolist``) before
  entering records so value formatting stays byte-identical.
* **Composite polluters** compile to a :class:`CompositeKernel`: one gate
  mask over the slab, then the child kernels polluter-major over the gated
  rows — ``ALL`` in sequence over the surviving rows, ``FIRST_MATCH`` each
  child over the rows no earlier child fired on, ``CHOOSE_ONE`` each child
  over the rows one bulk ``choice`` draw assigned to it.
* **Draw-free errors in bulk.** ``ScaleByFactor``, ``UnitConversion``
  (except the affine celsius->fahrenheit case), ``Offset``,
  ``RoundToPrecision``, ``SignFlip``, ``SetToConstant`` and ``SetToNull``,
  matched by exact type, draw nothing and hand back the record they got.
  Their kernel reads each target's column over the fired rows once,
  computes every new value before writing any (a cell ``require_numeric``
  refuses raises the per-row path's first error on an untouched slab),
  writes the copy-on-write records column by column, adds the fire tally
  as one integer and appends the slab's log events with one ``extend``.
  With no draws there is no stream order to keep, and the events come out
  in the fired rows' arrival order, as the per-row loop appends them.
* **Everything else** delegates to
  :meth:`~repro.core.polluter.StandardPolluter.apply_fired` per fired row —
  the exact sequential fired path (logging, observability tallies,
  drop/duplicate fan-out) — or, for tracked/custom/overriding polluters
  (:class:`FallbackKernel`), to the polluter's own ``apply``.
  ``batch_size=1`` never enters a kernel, so it stays the per-record
  oracle every fast path is compared against.

Because each polluter owns private named random streams and private state,
polluter-major batch order consumes every stream in the same order as
record-major sequential execution; only the pollution-log append order
changes (restored by a stable record-ID sort, see
:meth:`repro.core.log.PollutionLog.sort_by_record`).

Every kernel answers a slab with a :class:`SlabResult`: the output rows, the
input positions that fired, and — sparsely — the outputs of the input rows
that did not come out as themselves. A composite reads its children's fired
positions and outputs from there, so a kernel touches only the rows a
polluter fired on and hands its input lists back unchanged when no row
changed.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from itertools import repeat
from time import perf_counter
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.check.factbase import KernelPrediction, predict_kernel
from repro.core.composite import CompositeMode, CompositePolluter
from repro.core.errors.base import require_numeric
from repro.core.errors.missing import SetToConstant, SetToNull
from repro.core.errors.static_numeric import (
    Offset,
    RoundToPrecision,
    ScaleByFactor,
    SignFlip,
    UnitConversion,
    _preserve_int,
)
from repro.core.log import PollutionEvent, PollutionLog
from repro.core.pipeline import PollutionPipeline, _needs_rng
from repro.core.polluter import Polluter, StandardPolluter
from repro.errors import PollutionError
from repro.streaming.record import Record

__all__ = [
    "CompiledPipeline",
    "CompositeKernel",
    "FallbackKernel",
    "PolluterKernel",
    "SlabResult",
    "StandardKernel",
    "compile_pipeline",
    "polluter_label",
]

#: A mask function: records + taus -> the (ascending) positions that fire.
MaskFn = Callable[[Sequence[Record], Sequence[int]], list[int]]


class SlabResult(NamedTuple):
    """What one kernel did to one slab.

    ``records``/``taus`` are the output rows in arrival order (the input
    lists themselves when ``changed`` is empty). ``fired`` lists the input
    positions the polluter fired on, ascending. ``changed`` maps an input
    position to its output rows for every row that did not come out as
    exactly itself (dropped, fanned out, or replaced).
    """

    records: list[Record]
    taus: list[int]
    fired: list[int]
    changed: dict[int, list[Record]]


def polluter_label(polluter: Polluter) -> str:
    """Stable display name for profile/ledger attribution."""
    name = getattr(polluter, "_qualified_name", None) or getattr(
        polluter, "name", None
    )
    return str(name) if name else type(polluter).__name__


def _build_mask(condition: Any, kind: str | None) -> MaskFn:
    """Materialize the mask closure for a strategy (unknown kinds: row-wise)."""
    if kind == "always":
        return lambda records, taus: list(range(len(records)))
    if kind == "never":
        return lambda records, taus: []
    if kind == "probability":

        def probability_mask(
            records: Sequence[Record],
            taus: Sequence[int],
            condition: Any = condition,
        ) -> list[int]:
            # One bulk draw == n scalar draws, value- and state-identical.
            fired: list[int] = np.flatnonzero(
                condition.rng.random(len(records)) < condition.p
            ).tolist()
            return fired

        return probability_mask
    if kind == "pattern":

        def pattern_mask(
            records: Sequence[Record],
            taus: Sequence[int],
            condition: Any = condition,
        ) -> list[int]:
            draws = condition.rng.random(len(records)).tolist()
            probability = condition.probability
            return [
                i for i, (d, tau) in enumerate(zip(draws, taus)) if d < probability(tau)
            ]

        return pattern_mask

    def row_mask(
        records: Sequence[Record],
        taus: Sequence[int],
        condition: Any = condition,
    ) -> list[int]:
        # The sequential computation in the sequential order: exact for
        # stateful, composed, value-dependent, and user-defined conditions.
        evaluate = condition.evaluate
        return [
            i for i, (r, tau) in enumerate(zip(records, taus)) if evaluate(r, tau)
        ]

    return row_mask


def _splice(values: list[Any], changed: Mapping[int, Sequence[Any]]) -> list[Any]:
    """``values`` with each entry ``i`` in ``changed`` replaced by ``changed[i]``."""
    out: list[Any] = []
    start = 0
    for i in sorted(changed):
        out += values[start:i]
        out += changed[i]
        start = i + 1
    out += values[start:]
    return out


def _repeat(values: list[Any], changed: dict[int, list[Record]]) -> list[Any]:
    """``values`` with entry ``i`` repeated once per output of changed row ``i``."""
    return _splice(values, {i: [values[i]] * len(out) for i, out in changed.items()})


def _shares_an_id(records: list[Record]) -> bool:
    ids = {record.record_id for record in records}
    return len(ids) != len(records)


def _result(
    records: list[Record],
    taus: list[int],
    fired: list[int],
    changed: dict[int, list[Record]],
) -> SlabResult:
    if not changed:
        return SlabResult(records, taus, fired, changed)
    # Every output row inherits its input row's tau.
    return SlabResult(
        _splice(records, changed), _repeat(taus, changed), fired, changed
    )


def _per_record(
    polluter: Polluter,
    records: list[Record],
    taus: list[int],
    log: PollutionLog | None,
) -> SlabResult:
    """The polluter's own ``apply`` on every row, in arrival order."""
    fired: list[int] = []
    changed: dict[int, list[Record]] = {}
    apply = polluter.apply
    for i, (record, tau) in enumerate(zip(records, taus)):
        outcome = apply(record, tau, log)
        if outcome.fired:
            fired.append(i)
        out = outcome.records
        if len(out) != 1 or out[0] is not record:
            changed[i] = out
    return _result(records, taus, fired, changed)


#: A missing attribute's cell in a bulk column (``None`` is a null cell).
_MISSING = object()

#: Cell types the bulk numeric path computes without a per-row replay.
_PLAIN_CELLS = frozenset((float, int, type(None)))


def _numeric_cell(error: Any) -> Callable[[float], float] | None:
    """A bulk-path error's ``apply`` on one non-null numeric cell, at the
    intensity ``StandardPolluter`` applies it (1.0), before ``_preserve_int``;
    ``None`` for the errors that write a constant into every cell."""
    kind = type(error)
    if kind is ScaleByFactor or kind is UnitConversion:
        effective = 1.0 + 1.0 * (error.factor - 1.0)
        return lambda value: value * effective
    if kind is Offset:
        delta = error.delta * 1.0
        return lambda value: value + delta
    if kind is RoundToPrecision:
        digits = error.digits
        return lambda value: round(value, digits)
    if kind is SignFlip:
        return operator.neg
    if kind is SetToNull or kind is SetToConstant:
        return None
    raise PollutionError(f"{kind.__name__} has no bulk fired path")


def _cell_dicts(names: tuple[str, ...], columns: list[list[Any]]) -> list[dict[str, Any]]:
    """One ``{name: cell}`` dict per row: the log's ``before``/``after``."""
    if len(names) == 1:
        (name,) = names
        return [{name: cell} for cell in columns[0]]
    return [dict(zip(names, cells)) for cells in zip(*columns)]


def _apply_cells(
    cell: Callable[[float], float],
    attributes: tuple[str, ...],
    names: tuple[str, ...],
    columns: list[list[Any]],
) -> list[list[Any]]:
    """Each distinct target's column after the error: ``cell`` once per
    occurrence of the target, null and NaN cells left as they are."""
    current = dict(zip(names, columns))
    for name in attributes:
        current[name] = [
            v if v is None or v != v
            else round(cell(float(v))) if isinstance(v, int)
            else cell(float(v))
            for v in current[name]
        ]
    return [current[name] for name in names]


def _numeric_columns(
    cell: Callable[[float], float],
    error: Any,
    records: list[Record],
    taus: list[int],
    attributes: tuple[str, ...],
    names: tuple[str, ...],
    columns: list[list[Any]],
) -> list[list[Any]]:
    """The new columns of a numeric bulk error, computed before any write.

    Columns of plain floats, ints and nulls are computed directly. Any other
    cell type (which ``require_numeric`` may refuse), or a cell the
    arithmetic refuses, makes the error replay on a scratch copy of each
    record in arrival order first: the first bad cell then raises exactly
    what record-at-a-time execution raises, with no record written.
    """
    if all(_PLAIN_CELLS.issuperset(map(type, column)) for column in columns):
        try:
            return _apply_cells(cell, attributes, names, columns)
        except (ArithmeticError, ValueError):
            pass
    for record, tau in zip(records, taus):
        error.apply(Record(record.as_dict()), attributes, tau)
    return _apply_cells(cell, attributes, names, columns)


class PolluterKernel:
    """One compiled chain step: a batch in, a (possibly fanned) batch out.

    When ``profiler`` is attached (see :func:`compile_pipeline`),
    :meth:`apply_batch` times each slab and feeds the polluter's row in
    :class:`~repro.obs.profile.Profiler` — timing is observational only and
    never touches the records, so the byte-identity contract is unaffected.
    A composite's row includes the time of the children it runs.
    """

    profiler: Any = None  # repro.obs.profile.Profiler, attached at compile
    label: str = ""
    mask_seconds = 0.0  # per-slab condition-mask cost, set by StandardKernel

    def apply_batch(
        self,
        records: list[Record],
        taus: list[int],
        log: PollutionLog | None,
    ) -> SlabResult:
        profiler = self.profiler
        if profiler is None:
            return self._apply_batch(records, taus, log)
        self.mask_seconds = 0.0
        start = perf_counter()
        out = self._apply_batch(records, taus, log)
        profiler.add_kernel(
            self.label,
            perf_counter() - start,
            rows=len(records),
            mask_seconds=self.mask_seconds,
        )
        return out

    def _apply_batch(
        self,
        records: list[Record],
        taus: list[int],
        log: PollutionLog | None,
    ) -> SlabResult:
        raise NotImplementedError


class FallbackKernel(PolluterKernel):
    """Transparent per-record iteration for polluters without a batch kernel.

    Used for tracked wrappers, custom :class:`~repro.core.polluter.Polluter`
    classes and :class:`StandardPolluter` subclasses that override the
    standard application path — at the top of a chain or as a child inside
    a :class:`CompositeKernel`.
    """

    def __init__(self, polluter: Polluter) -> None:
        self.polluter = polluter

    def _apply_batch(
        self,
        records: list[Record],
        taus: list[int],
        log: PollutionLog | None,
    ) -> SlabResult:
        return _per_record(self.polluter, records, taus, log)


class StandardKernel(PolluterKernel):
    """Fused mask + fired-path kernel for a :class:`StandardPolluter`."""

    def __init__(self, polluter: StandardPolluter, prediction: KernelPrediction) -> None:
        self.polluter = polluter
        self._mask = _build_mask(polluter.condition, prediction.mask_kind)
        self._fired_path = prediction.fired_path
        if prediction.fired_path == "bulk":
            self._cell = _numeric_cell(polluter.error)

    def _apply_batch(
        self,
        records: list[Record],
        taus: list[int],
        log: PollutionLog | None,
    ) -> SlabResult:
        polluter = self.polluter
        if self.profiler is None:
            fired = self._mask(records, taus)
        else:
            mask_start = perf_counter()
            fired = self._mask(records, taus)
            self.mask_seconds = perf_counter() - mask_start
        obs = polluter._obs
        if obs is not None and len(fired) != len(records):
            # Buffered integer adds commute; the total equals the sequential
            # per-miss increments.
            obs.n_misses += len(records) - len(fired)
        if not fired:
            return SlabResult(records, taus, fired, {})
        if self._fired_path != "per-row":
            rows = records if len(fired) == len(records) else [records[i] for i in fired]
            rows_taus = taus if len(fired) == len(records) else [taus[i] for i in fired]
            if self._fired_path == "gaussian":
                self._apply_gaussian(rows, rows_taus, log)
                # Gaussian noise mutates in place and never changes multiplicity.
                return SlabResult(records, taus, fired, {})
            if self._apply_bulk(rows, rows_taus, log):
                return SlabResult(records, taus, fired, {})
        changed: dict[int, list[Record]] = {}
        apply_fired = polluter.apply_fired
        for i in fired:
            record = records[i]
            out = apply_fired(record, taus[i], log).records
            if len(out) != 1 or out[0] is not record:
                changed[i] = out
        return _result(records, taus, fired, changed)

    def _apply_bulk(
        self,
        fired: list[Record],
        fired_taus: list[int],
        log: PollutionLog | None,
    ) -> bool:
        """Apply a draw-free error to the fired rows column by column.

        Replicates the error's ``apply`` and the fired-path bookkeeping of
        ``StandardPolluter.apply_fired``: each distinct target's column is
        read once and every new value is computed before any record is
        written, so a cell ``require_numeric`` refuses raises the per-row
        path's first error on an untouched slab (see
        :func:`_numeric_columns`). A repeated target is applied once per
        occurrence, and only the cells the per-row path writes are written.
        One fire tally and one log ``extend`` cover the slab. Returns
        ``False``, having touched nothing, when a fired record lacks a
        target: the caller then runs the per-row path, which raises or skips
        exactly as record-at-a-time execution does.
        """
        polluter = self.polluter
        error = polluter.error
        attributes = polluter.attributes
        names = tuple(dict.fromkeys(attributes))
        columns = [[record.get(name, _MISSING) for record in fired] for name in names]
        if any(_MISSING in column for column in columns):
            return False
        written: list[range | list[int]]
        if self._cell is None:  # SetToNull / SetToConstant write every cell
            value = error.value if type(error) is SetToConstant else None
            after = [[value] * len(fired) for _ in names]
            written = [range(len(fired))] * len(names)
        else:
            after = _numeric_columns(
                self._cell, error, fired, fired_taus, attributes, names, columns
            )
            written = [
                [i for i, v in enumerate(column) if v is not None and v == v]
                for column in columns
            ]
        for name, indices, values in zip(names, written, after):
            for i in indices:
                fired[i][name] = values[i]
        obs = polluter._obs
        if obs is not None:
            obs.n_fires += len(fired)
        if log is not None:
            n = len(fired)
            log.extend(
                map(
                    PollutionEvent,
                    [record.record_id for record in fired],
                    [record.substream for record in fired],
                    repeat(polluter._qualified_name, n),
                    repeat(error.describe(), n),
                    repeat(attributes, n),
                    fired_taus,
                    _cell_dicts(names, columns),
                    _cell_dicts(names, after),
                    repeat(1, n),
                )
            )
        return True

    def _apply_gaussian(
        self,
        fired: list[Record],
        fired_taus: list[int],
        log: PollutionLog | None,
    ) -> None:
        """Bulk-draw Gaussian noise over the fired rows.

        Replicates ``GaussianNoise.apply`` + the fired-path bookkeeping of
        ``StandardPolluter.apply_fired`` exactly: one normal draw per
        non-null numeric target in record-major order, ``_preserve_int``
        on assignment, one log event per fired record (captured before /
        after around that record's mutation), one buffered fire tally each.
        """
        polluter = self.polluter
        error: Any = polluter.error
        attributes = polluter.attributes
        sigma = error.sigma
        if log is not None:
            targets = error.target_attributes(attributes)
            befores = [{a: record.get(a) for a in targets} for record in fired]
        pending: list[tuple[Record, str, float]] = []
        for record in fired:
            for name in attributes:
                value = require_numeric(record, name)
                if value is not None:
                    pending.append((record, name, value))
        if pending:
            noise = error.rng.normal(0.0, sigma, size=len(pending)).tolist()
            for (record, name, value), draw in zip(pending, noise):
                record[name] = _preserve_int(record[name], value + draw)
        obs = polluter._obs
        if obs is not None:
            obs.n_fires += len(fired)
        if log is not None:
            qualified = polluter._qualified_name
            described = error.describe()
            for record, tau, before in zip(fired, fired_taus, befores):
                log.record_event(
                    record=record,
                    polluter=qualified,
                    error=described,
                    attributes=targets,
                    tau=tau,
                    before=before,
                    after={a: record[a] for a in targets if a in record},
                    emitted=1,
                )


class CompositeKernel(PolluterKernel):
    """A :class:`~repro.core.composite.CompositePolluter` over a whole slab.

    The gate is one mask over the slab (the composite's own condition, on
    its own stream 0); its hits and misses reach the composite's counters
    exactly as the per-row path counts them. The mode then runs the child
    kernels — each through :meth:`PolluterKernel.apply_batch` — over the
    gated rows, and a gated row fires when a child fired on it (on one of
    its copies, for ``ALL``).

    Every child owns private streams and state, so each child consuming
    its rows in arrival order is exactly what the per-row path does:

    * ``ALL`` — children one after another; a dropped row leaves the list
      and a duplicated row hands its copies, in order, to later children;
    * ``FIRST_MATCH`` — child *i* sees only the rows no earlier child fired
      on, in arrival order;
    * ``CHOOSE_ONE`` — one bulk ``choice(len(children), size=k, p=weights)``
      on the composite's stream 2 (value- and state-identical to ``k``
      scalar calls), then each child runs over the rows drawn for it.

    One case stays per row. Copies from an upstream duplicate share their
    record's ID, and the pollution log's stable record-ID sort cannot put
    their events back in per-row order once polluter-major order has
    interleaved them (the per-row path logs one copy's whole composite
    before the next copy's). So a slab holding two rows with one record ID
    runs the composite's own ``apply`` per row when a log is kept; streams
    and state come out the same either way.
    """

    def __init__(
        self,
        polluter: CompositePolluter,
        children: list[PolluterKernel],
        prediction: KernelPrediction,
    ) -> None:
        self.polluter = polluter
        self.children = children
        self._mask = _build_mask(polluter.condition, prediction.mask_kind)
        self._run = {
            CompositeMode.ALL: self._run_all,
            CompositeMode.FIRST_MATCH: self._run_first_match,
            CompositeMode.CHOOSE_ONE: self._run_choose_one,
        }[polluter.mode]

    def _apply_batch(
        self,
        records: list[Record],
        taus: list[int],
        log: PollutionLog | None,
    ) -> SlabResult:
        if log is not None and _shares_an_id(records):
            return _per_record(self.polluter, records, taus, log)
        gated = self._mask(records, taus)
        obs = self.polluter._obs
        if obs is not None:
            obs.hits.value += len(gated)
            obs.misses.value += len(records) - len(gated)
        if not gated:
            return SlabResult(records, taus, gated, {})
        if len(gated) == len(records):
            fired, changed = self._run(records, taus, log)
        else:
            fired, changed = self._run(
                [records[i] for i in gated], [taus[i] for i in gated], log
            )
            fired = [gated[j] for j in fired]
            changed = {gated[j]: out for j, out in changed.items()}
        if obs is not None:
            obs.activations.value += len(fired)
        return _result(records, taus, fired, changed)

    def _run_all(
        self, records: list[Record], taus: list[int], log: PollutionLog | None
    ) -> tuple[list[int], dict[int, list[Record]]]:
        fired: set[int] = set()
        touched: set[int] = set()
        # origin[j]: the gated row the j-th current row descends from
        # (None while the list is still the gated rows themselves).
        origin: list[int] | None = None
        for child in self.children:
            result = child.apply_batch(records, taus, log)
            if origin is None:
                fired.update(result.fired)
                touched.update(result.changed)
            else:
                fired.update(origin[j] for j in result.fired)
                touched.update(origin[j] for j in result.changed)
            if result.changed:
                origin = _repeat(
                    origin if origin is not None else list(range(len(records))),
                    result.changed,
                )
                records, taus = result.records, result.taus
                if not records:
                    break  # every row dropped; nothing left for later children
        changed: dict[int, list[Record]] = {}
        if origin is not None:
            for j in touched:
                changed[j] = records[bisect_left(origin, j):bisect_right(origin, j)]
        return sorted(fired), changed

    def _run_first_match(
        self, records: list[Record], taus: list[int], log: PollutionLog | None
    ) -> tuple[list[int], dict[int, list[Record]]]:
        fired: list[int] = []
        changed: dict[int, list[Record]] = {}
        # open_rows[j]: the gated position of the j-th row still open
        # (None while every gated row is open).
        open_rows: list[int] | None = None
        for child in self.children:
            result = child.apply_batch(records, taus, log)
            hits = result.fired
            if not hits:
                continue
            for j in hits:
                row = j if open_rows is None else open_rows[j]
                fired.append(row)
                out = result.changed.get(j)
                if out is not None:
                    changed[row] = out
            if len(hits) == len(records):
                break  # every row matched
            # A row no child fired on keeps its input record, whatever an
            # unfired child handed back — the per-row path does the same.
            closed: Mapping[int, Sequence[Any]] = dict.fromkeys(hits, ())
            if open_rows is None:
                open_rows = list(range(len(records)))
            open_rows = _splice(open_rows, closed)
            records = _splice(records, closed)
            taus = _splice(taus, closed)
        fired.sort()
        return fired, changed

    def _run_choose_one(
        self, records: list[Record], taus: list[int], log: PollutionLog | None
    ) -> tuple[list[int], dict[int, list[Record]]]:
        polluter = self.polluter
        rng = polluter._choice_rng
        if rng is None:
            raise PollutionError(
                f"composite {polluter.name!r} not bound; attach it to a pipeline first"
            )
        picks = rng.choice(len(self.children), size=len(records), p=polluter.weights)
        fired: list[int] = []
        changed: dict[int, list[Record]] = {}
        for index, child in enumerate(self.children):
            rows: list[int] = np.flatnonzero(picks == index).tolist()
            if not rows:
                continue
            result = child.apply_batch(
                [records[j] for j in rows], [taus[j] for j in rows], log
            )
            fired += [rows[j] for j in result.fired]
            for j, out in result.changed.items():
                changed[rows[j]] = out
        fired.sort()
        return fired, changed


class CompiledPipeline:
    """A pipeline compiled into a polluter-major chain of batch kernels."""

    def __init__(self, pipeline: PollutionPipeline, kernels: list[PolluterKernel]) -> None:
        self.pipeline = pipeline
        self.kernels = kernels

    def apply_batch(
        self,
        records: list[Record],
        taus: list[int],
        log: PollutionLog | None = None,
    ) -> tuple[list[Record], list[int]]:
        """Run a slab through the whole chain; returns surviving rows + taus.

        Output rows keep the *original* ``tau`` of their input row through
        the entire chain (duplicated copies inherit it), matching
        :meth:`~repro.core.pipeline.PollutionPipeline.apply`.
        """
        if not records:
            return records, taus
        for kernel in self.kernels:
            records, taus, _fired, _changed = kernel.apply_batch(records, taus, log)
            if not records:
                break
        return records, taus


def _compile_kernel(polluter: Polluter, profiler: Any) -> PolluterKernel:
    prediction = predict_kernel(polluter)
    kernel: PolluterKernel
    if prediction.kind == "standard":
        kernel = StandardKernel(polluter, prediction)  # type: ignore[arg-type]
    elif prediction.kind == "composite":
        composite: Any = polluter
        kernel = CompositeKernel(
            composite,
            [_compile_kernel(child, profiler) for child in composite.children],
            prediction,
        )
    else:
        kernel = FallbackKernel(polluter)
    if profiler is not None:
        kernel.profiler = profiler
        kernel.label = polluter_label(polluter)
        profiler.register_kernel(kernel.label, prediction.kind, prediction.fired_path)
    return kernel


def compile_pipeline(
    pipeline: PollutionPipeline,
    profiler: Any = None,
) -> CompiledPipeline:
    """Compile a (bound) pipeline into its batch-kernel chain.

    Each polluter — and each child of a composite, recursively — gets the
    kernel :func:`repro.check.factbase.predict_kernel` names: the single
    authority on kernel eligibility, and the same prediction the ICE7xx
    performance lints and ``repro check --explain`` report.

    ``profiler`` (a :class:`repro.obs.profile.Profiler`) makes every kernel
    time its slabs and registers each polluter's kernel kind under its
    qualified name, so composite children and fallback polluters are named
    in the profile.
    """
    if not pipeline.is_bound and any(_needs_rng(p) for p in pipeline.polluters):
        raise PollutionError(
            f"pipeline {pipeline.name!r} contains stochastic polluters but was "
            "never bound to a RandomSource; call bind() or use the runner"
        )
    return CompiledPipeline(
        pipeline, [_compile_kernel(p, profiler) for p in pipeline.polluters]
    )
