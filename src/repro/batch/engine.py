"""The batch execution engine: submit/gather over bucketed requests.

:class:`BatchEngine` accepts many small execution requests, groups them
into buckets of requests that replay one run plan (the transform's plan
key: config content, input shapes, sizes — :mod:`repro.batch.request`),
and serves each bucket either *stacked* — one batched NumPy sweep over
a leading request axis (:mod:`repro.batch.stacked`) — or *serially*,
one ``CompiledTransform.run`` per request, when the bucket's transform
or configuration is not stackable.  Every program is batchable; only
the throughput differs.

Semantics:

* ``submit`` is asynchronous: it records the request and returns an id
  immediately; nothing executes until ``gather``.
* ``gather`` executes all pending requests and returns their results
  **in submission order**, regardless of bucket completion order
  (buckets drain in deterministic scrambled order — see
  :class:`repro.runtime.batchqueue.BucketQueue`).
* Errors are isolated per request: a stacked sweep that raises (e.g.
  one lane divides by zero) demotes its chunk to serial execution, so
  each request gets exactly the result or exception the serial engine
  gives it.  One bad request never poisons its bucket.

Counters on the optional :class:`~repro.observe.trace.TraceSink`:
``batch.requests``, ``batch.buckets``, ``batch.stacked_steps``,
``batch.stacked_requests``, ``batch.fallbacks``,
``batch.deadline_skips`` (requests resolved to a structured
deadline-exceeded error by an expired ``gather`` budget), plus a
``batch.requests_per_sec`` histogram (wall-clock, histogram-only — the
event stream stays deterministic).
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.batch.request import ArrayLike, BatchRequest, BatchResult
from repro.batch.stacked import plan_stacked, run_stacked
from repro.compiler.codegen import CompiledTransform, normalize_sizes
from repro.compiler.config import ChoiceConfig
from repro.compiler.plan import RunPlan
from repro.faults import Deadline
from repro.runtime.batchqueue import BucketQueue
from repro.runtime.matrix import Matrix

#: The most requests one stacked sweep carries: a larger bucket runs as
#: several chunks, so one chunk's arrays are at most ``MAX_STACK`` times
#: the serial footprint.
MAX_STACK = 1024


class BatchEngine:
    """Bucketing submit/gather executor for many small requests.

    The engine is safe to keep alive indefinitely (the serve daemon
    does): each request carries a private copy of its config, so
    mutating the caller's object after ``submit`` affects neither
    bucketing nor execution, and the engine holds no per-config state
    between gathers.  A bucket's plan is the transform's own cached
    :class:`RunPlan` (``CompiledTransform.plan``), so the transform's
    bounded LRU is the one plan cache.
    """

    def __init__(self, sink=None) -> None:
        self.sink = sink
        self._pending: List[BatchRequest] = []
        self._results: Dict[int, BatchResult] = {}
        self._tokens: Dict[int, str] = {}
        self._token_refs: List[CompiledTransform] = []  # keep ids alive
        self._next_id = 0

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        transform: CompiledTransform,
        inputs: Union[Mapping[str, ArrayLike], Sequence[ArrayLike], None],
        config: Optional[ChoiceConfig] = None,
        sizes: Optional[Mapping[str, int]] = None,
    ) -> int:
        """Queue one request; returns its id (also its gather position).

        The request keeps a private copy of ``config`` (``None`` runs as
        ``ChoiceConfig()``, as in ``CompiledTransform.run``), so two
        submits separated by a mutation land in different buckets and
        run with the configs they were submitted with.  Inputs bind
        through :meth:`CompiledTransform.bind_inputs`; a request whose
        inputs or sizes do not bind runs serially and gets the engine's
        own error.
        """
        request = BatchRequest(
            request_id=self._next_id,
            transform=transform,
            inputs=inputs,
            config=ChoiceConfig() if config is None else config.copy(),
            sizes=sizes,
        )
        self._next_id += 1
        try:
            views = transform.bind_inputs(inputs)
            request.sizes = normalize_sizes(sizes)
        except Exception:
            pass  # the serial run reports the error
        else:
            request.inputs = views
            request.shapes = tuple([view.shape for view in views.values()])
        self._pending.append(request)
        return request.request_id

    def gather(self, deadline: Optional[Deadline] = None) -> List[BatchResult]:
        """Execute everything pending; results in submission order.

        ``deadline`` (the request's budget) is checked at bucket, chunk,
        and serial-request boundaries: once expired, every not-yet-
        started request resolves to a well-formed ``error()`` result
        while requests already inside a stacked chunk complete normally
        — an expired budget never abandons half-written results.
        """
        pending, self._pending = self._pending, []
        if not pending:
            return []
        started = time.perf_counter()
        queue: BucketQueue[BatchRequest] = BucketQueue()
        for request in pending:
            queue.add(self._key(request), request)
        for _, requests in queue.drain():
            if deadline is not None and deadline.expired():
                self._expire(requests, deadline)
                continue
            if self.sink is not None:
                self.sink.count("batch.buckets")
            self._run_bucket(requests, deadline)
        elapsed = time.perf_counter() - started
        if self.sink is not None:
            self.sink.count("batch.requests", len(pending))
            if elapsed > 0:
                self.sink.observe(
                    "batch.requests_per_sec", len(pending) / elapsed
                )
        return [
            self._results.pop(request.request_id) for request in pending
        ]

    def run(
        self,
        requests: Sequence[
            Tuple[CompiledTransform, Union[Mapping, Sequence, None]]
        ],
        config: Optional[ChoiceConfig] = None,
    ) -> List[BatchResult]:
        """Convenience: submit ``(transform, inputs)`` pairs and gather."""
        for transform, inputs in requests:
            self.submit(transform, inputs, config)
        return self.gather()

    # -- bucketing ----------------------------------------------------------

    def _key(self, request: BatchRequest) -> Tuple:
        """The bucket: the transform's plan key (config content, shapes,
        sizes) under its program token and name.  A request that did not
        bind gets a bucket of its own."""
        if request.shapes is None:
            return ("unbound", request.request_id)
        token = self._tokens.get(id(request.transform.program))
        if token is None:
            token = f"p{len(self._token_refs)}"
            self._tokens[id(request.transform.program)] = token
            self._token_refs.append(request.transform)
        return (
            token,
            request.transform.name,
            request.shapes,
            request.config.key(),
            tuple(sorted(request.sizes.items())),
        )

    def _expire(self, requests: List[BatchRequest], deadline: Deadline) -> None:
        """Resolve every request to the deadline's structured error."""
        if self.sink is not None:
            self.sink.count("batch.deadline_skips", len(requests))
        for request in requests:
            self._results[request.request_id] = BatchResult(
                request_id=request.request_id,
                outputs=None,
                error=deadline.error(),
                stacked=False,
            )

    def _run_bucket(
        self, requests: List[BatchRequest],
        deadline: Optional[Deadline] = None,
    ) -> None:
        first = requests[0]
        plan = None
        if first.shapes is not None:
            plan, _reason = plan_stacked(
                first.transform, first.shapes, first.config, first.sizes
            )
        if plan is None:
            for request in requests:
                if deadline is not None and deadline.expired():
                    self._expire([request], deadline)
                    continue
                self._run_serial(request, fallback=True)
            return
        for start in range(0, len(requests), MAX_STACK):
            chunk = requests[start : start + MAX_STACK]
            if deadline is not None and deadline.expired():
                self._expire(chunk, deadline)
                continue
            self._run_chunk(plan, chunk)

    def _run_chunk(
        self, plan: RunPlan, chunk: List[BatchRequest]
    ) -> None:
        try:
            stacked_inputs = {
                name: np.stack(
                    [request.inputs[name].to_numpy() for request in chunk]
                )
                for name in chunk[0].inputs
            }
            outputs = run_stacked(
                plan, stacked_inputs, len(chunk), sink=self.sink
            )
        except Exception:
            # Demote the whole chunk: each request re-runs serially and
            # owns its exact serial result or error.
            for request in chunk:
                self._run_serial(request, fallback=True)
            return
        if self.sink is not None:
            self.sink.count("batch.stacked_requests", len(chunk))
        for lane, request in enumerate(chunk):
            self._results[request.request_id] = BatchResult(
                request_id=request.request_id,
                outputs={
                    name: Matrix(storage.data[lane].copy(), name)
                    for name, storage in outputs.items()
                },
                stacked=True,
                meta={"sizes": dict(plan.env)},
            )

    def _run_serial(self, request: BatchRequest, fallback: bool) -> None:
        if fallback and self.sink is not None:
            self.sink.count("batch.fallbacks")
        try:
            result = request.transform.run(
                request.inputs, request.config, sizes=request.sizes
            )
            outcome = BatchResult(
                request_id=request.request_id,
                outputs=result.outputs,
                stacked=False,
                meta={"sizes": result.sizes},
            )
        except Exception as error:
            outcome = BatchResult(
                request_id=request.request_id,
                outputs=None,
                error=error,
                stacked=False,
            )
        self._results[request.request_id] = outcome
