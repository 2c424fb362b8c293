"""``repro serve``: the one HTTP server for artifacts, fleet work and runs.

One process serves an artifact store to sweep machines and workers,
hands out fleet job leases, and accepts sweep submissions from many
tenants, scheduling them fairly over one shared worker pool
(:class:`~repro.orchestration.scheduler.FairScheduler`) and one shared
store and streaming each run's results back incrementally.  Because
jobs are content-addressed, overlapping submissions from different
tenants compute the overlap **once** fleet-wide — each run's manifest
charges a shared job as ``computed`` to exactly one tenant and
``cached`` to every other, so the counters add up across tenants.

The protocol is JSON over HTTP:

=====================================  ==================================
``GET    /v1/artifact/<kind>/<key>``   canonical JSON text, or 404
``HEAD   /v1/artifact/<kind>/<key>``   existence probe (200 / 404)
``PUT    /v1/artifact/<kind>/<key>``   store the request body (JSON)
``DELETE /v1/artifact/<kind>/<key>``   remove one artifact (204 / 404)
``POST   /v1/artifacts/get``           batched GET: ``{"items": [...]}``
``POST   /v1/artifacts/head``          batched HEAD (items are booleans)
``GET    /v1/list``                    ``{"entries": [{kind,key,size,mtime}]}``
``GET    /v1/stats``                   ``{"entries": N, "bytes": M}``
``GET    /v1/ping``                    ``{"ok": true, "store": "<url>", ...}``
``POST   /v1/fleet/<verb>``            enqueue / lease / heartbeat /
                                       complete / withdraw
``GET    /v1/fleet/status``            fleet progress counters + ledgers
``POST   /v1/run``                     submit a sweep → ``{"run_id"}``
``GET    /v1/run/<id>``                status: counts, state, failures
``GET    /v1/run/<id>/results``        result rows (``?after=N`` resumes)
``GET    /v1/run/<id>/manifest``       diff-compatible run manifest
``DELETE /v1/run/<id>``                cancel the run's queued jobs
=====================================  ==================================

Artifact text passes through verbatim — the server never re-encodes
payloads — so a cache populated over HTTP is byte-identical to one the
same backend would have written locally.  The batched routes answer
one round trip per :attr:`~repro.orchestration.backends
.RemoteHTTPBackend.batch_size` chunk of keys (reply ``items`` are
positional).  The fleet routes speak the
:class:`~repro.orchestration.coordinator.FleetCoordinator` protocol;
the fair scheduler grants jobs that belong to no run (``repro sweep
--fleet`` DAGs) in the coordinator's own order, so external ``repro
worker`` processes and the in-process pool share one queue.

With no tokens configured the server is unauthenticated: serve it on a
trusted network only.  With tokens configured **every** route requires
``Authorization: Bearer <token>``; tokens are compared in constant time
(:func:`hmac.compare_digest`, all tokens always checked) and may carry
an expiry.  A request without a valid live token gets ``401 {"error":
"unauthorized"}`` and nothing else — no path echo, no hint which part
failed.  A request-body cap (HTTP 413) and a per-connection socket
timeout keep abusive or stalled clients from pinning handler threads.

Submissions are :class:`~repro.orchestration.sweep.SweepSpec` documents
(or the single-flow shorthand ``{"topology", "benchmark", "engine"}``);
planning reuses :func:`~repro.orchestration.sweep.plan_sweep`,
execution reuses the coordinator/worker stack in-process, and results
are bit-identical to a serial :func:`~repro.orchestration.sweep
.run_sweep` of the same spec.  Completed runs are persisted under
``<runs_root>/<run_id>/`` as ``results.jsonl`` + ``manifest.json``,
the same layout every other run producer writes (``repro diff`` reads
them directly).  See ``docs/service.md`` and ``docs/storage.md``.
"""

from __future__ import annotations

import hmac
import json
import os
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.orchestration.backends import StoreBackend
from repro.orchestration.coordinator import LocalFleetClient, serialize_graph
from repro.orchestration.executor import RunStats
from repro.orchestration.scheduler import FairScheduler
from repro.orchestration.sink import RunSink
from repro.orchestration.stages import config_from_dict, noise_from_dict
from repro.orchestration.store import ArtifactStore
from repro.orchestration.sweep import SweepSpec, plan_sweep
from repro.orchestration.worker import run_worker

#: The states a run can report; terminal ones end a client's polling.
TERMINAL_RUN_STATES = ("done", "failed", "cancelled")

#: The tenant every request belongs to when no tokens are configured.
ANONYMOUS_TENANT = "anonymous"

#: Fields a submitted spec document may carry (SweepSpec's surface).
_SPEC_FIELDS = (
    "topologies",
    "benchmarks",
    "engines",
    "num_seeds",
    "base_seed",
    "detailed",
    "config",
    "noise",
)

#: Fields of the single-flow shorthand.
_FLOW_FIELDS = ("topology", "benchmark", "engine") + _SPEC_FIELDS[3:]

_RUN_ID_PATTERN = r"[A-Za-z0-9][A-Za-z0-9_.-]*"
_RUN_PATH = re.compile(rf"^/v1/run/({_RUN_ID_PATTERN})$")
_RESULTS_PATH = re.compile(rf"^/v1/run/({_RUN_ID_PATTERN})/results$")
_MANIFEST_PATH = re.compile(rf"^/v1/run/({_RUN_ID_PATTERN})/manifest$")

#: kind / key path segments must be plain tokens — this is what keeps a
#: DirBackend-backed server inside its root (no separators, no dotfiles).
_SAFE_SEGMENT = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: Refuse absurd request bodies rather than buffering them (64 MiB).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Default per-connection socket timeout: a client that stops sending
#: mid-request is disconnected instead of pinning a handler thread.
DEFAULT_SOCKET_TIMEOUT_S = 60.0

#: Refuse batch requests larger than any sane client chunk — the
#: shipped client never sends more than its ``batch_size`` (default
#: 128), so this only trips hand-rolled abuse.
MAX_BATCH_ITEMS = 4096

#: POST routes of the fleet protocol → coordinator verb.
_FLEET_VERBS = {
    "/v1/fleet/enqueue": "enqueue",
    "/v1/fleet/lease": "lease",
    "/v1/fleet/heartbeat": "heartbeat",
    "/v1/fleet/complete": "complete",
    "/v1/fleet/withdraw": "withdraw",
}

#: POST routes of the batched artifact protocol → verb.
_BATCH_VERBS = {
    "/v1/artifacts/get": "get",
    "/v1/artifacts/head": "head",
}


class ServiceError(RuntimeError):
    """A job-service request failed (client side)."""


@dataclass(frozen=True)
class ServiceToken:
    """One bearer token: the secret, its tenant, an optional expiry.

    ``expires_s`` is a timestamp on the *service's* clock (the
    injectable ``clock`` passed to :class:`JobService`, monotonic by
    default); ``None`` never expires.
    """

    secret: str
    tenant: str = "default"
    expires_s: Optional[float] = None


def spec_from_document(document: dict) -> SweepSpec:
    """Build a :class:`SweepSpec` from a submitted JSON document.

    Accepts either the full spec form (``topologies`` / ``benchmarks``
    / ``engines`` lists plus the optional seed/config fields) or the
    single-flow shorthand (``topology`` / ``benchmark`` / ``engine``
    strings).  Unknown fields are rejected so a typo like ``topologys``
    fails loudly instead of silently running the defaults, and
    ``config`` / ``noise`` must parse as the objects the stage runners
    rebuild, so a bad one fails the submission, not every planned job.
    """
    if not isinstance(document, dict):
        raise ValueError("submission must be a JSON object")
    if "topology" in document:
        unknown = set(document) - set(_FLOW_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown flow fields: {', '.join(sorted(unknown))}"
            )
        for name in ("topology", "benchmark", "engine"):
            if name not in document:
                raise ValueError(f"flow submission is missing {name!r}")
        fields: dict = {
            "topologies": (document["topology"],),
            "benchmarks": (document["benchmark"],),
            "engines": (document["engine"],),
        }
        fields.update(
            (name, document[name])
            for name in _SPEC_FIELDS[3:]
            if name in document
        )
    else:
        unknown = set(document) - set(_SPEC_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown spec fields: {', '.join(sorted(unknown))}"
            )
        for name in ("topologies", "benchmarks", "engines"):
            if not document.get(name):
                raise ValueError(f"spec is missing {name!r}")
        fields = {k: document[k] for k in _SPEC_FIELDS if k in document}
    parsers = {"config": config_from_dict, "noise": noise_from_dict}
    for name, parse in parsers.items():
        if name not in fields:
            continue
        if not isinstance(fields[name], dict):
            raise ValueError(f"{name} must be a JSON object")
        parse(fields[name])
    return SweepSpec(**fields)


def _parse_artifact_path(path: str) -> Optional[Tuple[str, str]]:
    """``/v1/artifact/<kind>/<key>`` → ``(kind, key)``, else ``None``."""
    parts = path.split("/")
    if len(parts) != 5 or parts[:3] != ["", "v1", "artifact"]:
        return None
    kind, key = urllib.parse.unquote(parts[3]), urllib.parse.unquote(parts[4])
    if not (_SAFE_SEGMENT.match(kind) and _SAFE_SEGMENT.match(key)):
        return None
    return kind, key


@dataclass
class _ServiceRun:
    """One submitted run's service-side bookkeeping."""

    run_id: str
    tenant: str
    spec: dict  # JSON-safe SweepSpec form
    cells: List[dict]  # {"topology","benchmark","engine","key"}, plan order
    num_jobs: int
    rows: List[dict] = field(default_factory=list)  # guarded-by: _runs_lock
    cells_done: int = 0  # guarded-by: _runs_lock — cells consumed into rows
    persisted: bool = False  # guarded-by: _runs_lock


class _RequestHandler(BaseHTTPRequestHandler):
    """Every route of the protocol, each behind the one auth check."""

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    server: "_HTTPServer"

    # -- plumbing ---------------------------------------------------------
    @property
    def service(self) -> "JobService":
        return self.server.service

    @property
    def backend(self) -> StoreBackend:
        return self.service.backend

    def setup(self) -> None:
        # Per-connection socket timeout: handle_one_request treats a
        # timed-out read as "close the connection", so a stalled client
        # releases its handler thread instead of wedging it.
        self.timeout = self.service.socket_timeout_s
        BaseHTTPRequestHandler.setup(self)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if not self.service.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send(self, status: int, body: bytes = b"",
              content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body and self.command != "HEAD":
            self.wfile.write(body)

    def _send_json(self, status: int, document: dict) -> None:
        # repro: lint-ignore[RPR002] protocol responses are transport;
        # artifact payload bytes pass through _send verbatim, unsorted
        self._send(status, json.dumps(document).encode("utf-8"))

    def _bad_request(self, message: str) -> None:
        self._send_json(400, {"error": message})

    def _read_body(self) -> Optional[bytes]:
        """The request body, bounded; sends the error response on None.

        Enforces the service's ``max_body_bytes`` (HTTP 413) alongside
        the missing/negative Content-Length rejections, so a handler
        thread never buffers an absurd upload or blocks forever on a
        length the client will never send.
        """
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._bad_request("missing Content-Length")
            return None
        if length < 0:
            # read(-1) would block on the socket until the client
            # hangs up — refuse instead of tying up a handler thread.
            self._bad_request("negative Content-Length")
            return None
        limit = self.service.max_body_bytes
        if length > limit:
            self._send_json(
                413,
                {
                    "error": f"body of {length} bytes exceeds the "
                    f"server limit of {limit}"
                },
            )
            return None
        return self.rfile.read(length)

    def _read_object(self) -> Optional[dict]:
        """The body as a JSON object; sends the error response on None."""
        body = self._read_body()
        if body is None:
            return None
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            document = None
        if not isinstance(document, dict):
            self._bad_request("body is not a JSON object")
            return None
        return document

    def _artifact_or_400(self) -> Optional[Tuple[str, str]]:
        located = _parse_artifact_path(self.path)
        if located is None:
            self._bad_request(f"unrecognized path {self.path!r}")
        return located

    def _run_reply(self, call: Callable[..., dict], *args: object) -> None:
        """Answer a per-run query; an unknown run id is a 404."""
        try:
            document = call(*args)
        except ValueError:
            self._send_json(404, {"error": "unknown run"})
        else:
            self._send_json(200, document)

    # -- the auth gate ----------------------------------------------------
    def _dispatch(self, route: Callable[[str], None]) -> None:
        header = self.headers.get("Authorization") or ""
        scheme, _, secret = header.partition(" ")
        tenant = self.service.authenticate(
            secret if scheme == "Bearer" else None
        )
        if tenant is None:
            # Exactly this body on every auth failure: no path echo, no
            # missing-vs-wrong-vs-expired distinction to probe.
            self._send_json(401, {"error": "unauthorized"})
            return
        route(tenant)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch(self._get)

    def do_HEAD(self) -> None:  # noqa: N802
        self._dispatch(self._head)

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch(self._put)

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch(self._post)

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch(self._delete)

    # -- routes -----------------------------------------------------------
    def _get(self, _tenant: str) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        path = parsed.path
        if path == "/v1/ping":
            self._send_json(
                200,
                {"ok": True, "store": self.backend.describe(), "fleet": True},
            )
            return
        if path == "/v1/fleet/status":
            self._send_json(200, self.service.scheduler.status())
            return
        if path == "/v1/list":
            entries = [
                {"kind": e.kind, "key": e.key, "size": e.size,
                 "mtime": e.mtime}
                for e in self.backend.entries()
            ]
            self._send_json(200, {"entries": entries})
            return
        if path == "/v1/stats":
            entries = self.backend.entries()
            self._send_json(
                200,
                {
                    "entries": len(entries),
                    "bytes": sum(e.size for e in entries),
                },
            )
            return
        matched = _RUN_PATH.match(path)
        if matched:
            self._run_reply(self.service.run_status, matched.group(1))
            return
        matched = _RESULTS_PATH.match(path)
        if matched:
            query = urllib.parse.parse_qs(parsed.query)
            try:
                after = int(query.get("after", ["0"])[0])
            except ValueError:
                self._bad_request("after must be an integer")
                return
            if after < 0:
                self._bad_request("after must be >= 0")
                return
            self._run_reply(self.service.run_results, matched.group(1), after)
            return
        matched = _MANIFEST_PATH.match(path)
        if matched:
            self._run_reply(self.service.run_manifest, matched.group(1))
            return
        located = self._artifact_or_400()
        if located is None:
            return
        text = self.backend.get_text(*located)
        if text is None:
            self._send_json(404, {"error": "not found"})
            return
        self._send(200, text.encode("utf-8"))

    def _head(self, _tenant: str) -> None:
        located = self._artifact_or_400()
        if located is not None:
            self._send(200 if self.backend.has(*located) else 404)

    def _put(self, _tenant: str) -> None:
        located = self._artifact_or_400()
        if located is None:
            return
        body = self._read_body()
        if body is None:
            return
        try:
            text = body.decode("utf-8")
            json.loads(text)  # validate only; stored verbatim
        except (UnicodeDecodeError, ValueError):
            self._bad_request("body is not valid JSON")
            return
        self.backend.put_text(*located, text)
        self._send(204)

    def _delete(self, _tenant: str) -> None:
        matched = _RUN_PATH.match(self.path)
        if matched:
            self._run_reply(self.service.cancel, matched.group(1))
            return
        located = self._artifact_or_400()
        if located is None:
            return
        if self.backend.delete(*located):
            self._send(204)
        else:
            self._send_json(404, {"error": "not found"})

    def _post(self, tenant: str) -> None:
        if self.path == "/v1/run":
            document = self._read_object()
            if document is None:
                return
            try:
                reply = self.service.submit(document, tenant)
            except (KeyError, TypeError, ValueError) as exc:
                self._bad_request(f"invalid submission: {exc}")
                return
            self._send_json(200, reply)
            return
        batch_verb = _BATCH_VERBS.get(self.path)
        if batch_verb is not None:
            self._post_batch(batch_verb)
            return
        verb = _FLEET_VERBS.get(self.path)
        if verb is None:
            self._bad_request(f"unrecognized path {self.path!r}")
            return
        document = self._read_object()
        if document is None:
            return
        scheduler = self.service.scheduler
        try:
            if verb == "enqueue":
                reply = scheduler.enqueue(document["jobs"])
            elif verb == "lease":
                reply = scheduler.lease(
                    document["worker"], int(document.get("max_jobs", 1))
                )
            elif verb == "heartbeat":
                reply = scheduler.heartbeat(document["worker"])
            elif verb == "withdraw":
                reply = scheduler.withdraw(document["keys"])
            else:  # complete
                reply = scheduler.complete(
                    document["worker"],
                    document["key"],
                    document["status"],
                    error=document.get("error"),
                )
        except (KeyError, TypeError, ValueError) as exc:
            self._bad_request(f"invalid fleet request: {exc}")
            return
        self._send_json(200, reply)

    def _post_batch(self, verb: str) -> None:
        """Batched multi-key artifact reads (``/v1/artifacts/get|head``)."""
        document = self._read_object()
        if document is None:
            return
        items = document.get("items")
        if not isinstance(items, list):
            self._bad_request("body is not {\"items\": [...]}")
            return
        if len(items) > MAX_BATCH_ITEMS:
            self._bad_request(
                f"batch of {len(items)} items exceeds the server "
                f"limit of {MAX_BATCH_ITEMS}"
            )
            return
        pairs = []
        for item in items:
            if not isinstance(item, dict):
                self._bad_request("each item must be {\"kind\", \"key\"}")
                return
            kind, key = str(item.get("kind", "")), str(item.get("key", ""))
            if not (_SAFE_SEGMENT.match(kind) and _SAFE_SEGMENT.match(key)):
                self._bad_request(f"invalid kind/key {kind!r}/{key!r}")
                return
            pairs.append((kind, key))
        if verb == "head":
            found = self.backend.has_many(pairs)
        else:
            found = self.backend.get_many(pairs)
        self._send_json(200, {"items": [found[pair] for pair in pairs]})


class _HTTPServer(ThreadingHTTPServer):
    """The stdlib threading server, bound to the service it fronts."""

    daemon_threads = True

    def __init__(
        self, address: Tuple[str, int], service: "JobService"
    ) -> None:
        self.service = service
        super().__init__(address, _RequestHandler)


class JobService:
    """The running server: artifacts, fleet leases and tenant runs.

    Owns the HTTP front door, the :class:`~repro.orchestration
    .scheduler.FairScheduler` behind its fleet and run routes, and a
    pool of ``workers`` in-process worker threads pulling from that
    scheduler through :class:`~repro.orchestration.coordinator
    .LocalFleetClient`.  ``workers=0`` executes nothing in-process:
    runs queue until external ``repro worker`` processes lease them.
    Binds on construction (``port=0`` → ephemeral, read back from
    :attr:`url`); serves and executes after :meth:`start`.  Usable as a
    context manager::

        tokens = [ServiceToken("s3cret", tenant="alice")]
        with JobService("dir:.repro_cache", tokens, workers=2) as service:
            client = ServiceClient(service.url, "s3cret")
            run = client.submit({"topologies": [...], ...})
            client.wait(run["run_id"])

    With no ``tokens`` every route is open (trusted networks only) and
    every run belongs to :data:`ANONYMOUS_TENANT`.  ``store`` may be a
    store URL, a backend, or an :class:`~repro.orchestration.store
    .ArtifactStore`; it must persist through a backend, which the HTTP
    artifact routes serve as :attr:`backend`.  A store the service opened from a URL
    is closed on :meth:`stop`; a caller-supplied backend or store stays
    open for the caller.
    """

    def __init__(
        self,
        store: Union[str, StoreBackend, ArtifactStore],
        tokens: Iterable[Union[str, ServiceToken]] = (),
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        runs_root: Optional[str] = None,
        lease_ttl_s: float = 60.0,
        max_attempts: int = 3,
        poll_s: float = 0.05,
        quiet: bool = True,
        clock: Callable[[], float] = time.monotonic,
        max_body_bytes: int = MAX_BODY_BYTES,
        socket_timeout_s: Optional[float] = DEFAULT_SOCKET_TIMEOUT_S,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self._tokens = tuple(
            token if isinstance(token, ServiceToken)
            else ServiceToken(secret=token, tenant=f"tenant{index + 1}")
            for index, token in enumerate(tokens)
        )
        self._owns_store = isinstance(store, str)
        if isinstance(store, ArtifactStore):
            self.store = store
        elif isinstance(store, StoreBackend):
            self.store = ArtifactStore(backend=store)
        else:
            self.store = ArtifactStore.from_url(store)
        if self.store.backend is None:
            raise ValueError(
                "the service store must persist through a backend "
                "(the HTTP artifact endpoints serve it)"
            )
        self.backend: StoreBackend = self.store.backend
        self._clock = clock
        self.runs_root = runs_root
        self.workers = workers
        self.poll_s = poll_s
        self.quiet = quiet
        self.max_body_bytes = max_body_bytes
        self.socket_timeout_s = socket_timeout_s
        self.scheduler = FairScheduler(
            lease_ttl_s=lease_ttl_s, max_attempts=max_attempts, clock=clock
        )
        self._httpd = _HTTPServer((host, port), self)
        self.host, self.port = self._httpd.server_address[:2]
        self._serving: Optional[threading.Thread] = None
        self._runs: Dict[str, _ServiceRun] = {}  # guarded-by: _runs_lock
        self._runs_lock = threading.Lock()
        self._seq = 0  # guarded-by: _runs_lock — run-id counter
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    @property
    def url(self) -> str:
        """The base URL tenants pass to :class:`ServiceClient`."""
        return f"http://{self.host}:{self.port}"

    # -- auth --------------------------------------------------------------
    def authenticate(self, presented: Optional[str]) -> Optional[str]:
        """The tenant of a matching live token, else None.

        With no tokens configured every request is the anonymous
        tenant's.  Otherwise every configured token is always compared
        (no early exit) and each comparison is constant-time, so
        response timing reveals neither which token matched nor how
        close a guess came.
        """
        if not self._tokens:
            return ANONYMOUS_TENANT
        if presented is None:
            return None
        presented_bytes = presented.strip().encode("utf-8")
        now = self._clock()
        tenant: Optional[str] = None
        for token in self._tokens:
            match = hmac.compare_digest(
                token.secret.encode("utf-8"), presented_bytes
            )
            live = token.expires_s is None or now < token.expires_s
            if match and live and tenant is None:
                tenant = token.tenant
        return tenant

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "JobService":
        """Start serving and executing; returns self for chaining."""
        self._serving = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._serving.start()
        for index in range(self.workers):
            thread = threading.Thread(
                target=run_worker,
                kwargs={
                    "coordinator": LocalFleetClient(self.scheduler),
                    "store": self.store,
                    "worker_id": f"svc-worker-{index}",
                    "batch_size": 1,
                    "poll_s": self.poll_s,
                    "exit_when_idle": False,
                    "stop": self._stop,
                },
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Drain the workers and shut the server down; idempotent."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=30)
        self._threads = []
        if self._serving is not None:
            self._httpd.shutdown()
            self._serving.join(timeout=10)
            self._serving = None
        self._httpd.server_close()
        if self._owns_store:
            self.store.close()
            self._owns_store = False

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    # -- the run API (called by the handler and by embedders) --------------
    def submit(self, document: dict, tenant: str) -> dict:
        """Plan and register a run; returns the submission receipt.

        ``shared_jobs`` in the receipt counts the jobs another live run
        had already enqueued — the fleet computes them once and this
        run simply consumes the artifacts.
        """
        spec = spec_from_document(document)
        plan = plan_sweep(spec)
        rows = serialize_graph(plan.graph)
        cells = [
            {"topology": t, "benchmark": b, "engine": e, "key": key}
            for (t, b, e), key in plan.cells.items()
        ]
        with self._runs_lock:
            self._seq += 1
            run_id = f"run{self._seq:04d}-{spec.spec_hash[:8]}"
        reply = self.scheduler.register_run(run_id, tenant, rows)
        with self._runs_lock:
            self._runs[run_id] = _ServiceRun(
                run_id=run_id,
                tenant=tenant,
                spec=spec.to_dict(),
                cells=cells,
                num_jobs=len(rows),
            )
        return {
            "run_id": run_id,
            "tenant": tenant,
            "num_jobs": len(rows),
            "num_cells": len(cells),
            "shared_jobs": reply["known"],
            "resurrected_jobs": reply["resurrected"],
        }

    def _get_run(self, run_id: str) -> _ServiceRun:
        with self._runs_lock:
            run = self._runs.get(run_id)
        if run is None:
            raise ValueError(f"unknown run id {run_id!r}")
        return run

    def _advance_results(self, run: _ServiceRun, snapshot: dict) -> None:
        """Consume newly finished cells into the run's result rows.

        Rows are appended strictly in plan order — a cell is consumed
        only once every cell before it is done — so incremental reads
        see a stable, deterministic prefix of the final stream, exactly
        the order a serial ``run_sweep`` would emit.  Cells whose
        payload has no samples are skipped, matching ``run_sweep``.
        """
        states = snapshot["states"]
        with self._runs_lock:
            while run.cells_done < len(run.cells):
                cell = run.cells[run.cells_done]
                if states.get(cell["key"]) != "done":
                    break
                payload = self.store.get("fidelity", cell["key"])
                if payload is None:
                    break  # store lagging the ledger: retry next poll
                run.cells_done += 1
                samples = payload["samples"]
                if not samples:
                    continue
                run.rows.append(
                    {
                        "topology": cell["topology"],
                        "benchmark": cell["benchmark"],
                        "engine": cell["engine"],
                        "mean": sum(samples) / len(samples),
                        "minimum": min(samples),
                        "maximum": max(samples),
                        "num_samples": len(samples),
                        "samples": samples,
                    }
                )

    def run_status(self, run_id: str) -> dict:
        """One run's progress: state, counts, attribution, failures."""
        run = self._get_run(run_id)
        snapshot = self.scheduler.run_snapshot(run_id)
        self._advance_results(run, snapshot)
        charged = set(snapshot["charged"])
        results = snapshot["results"]
        computed = sum(
            1
            for key in charged
            if results.get(key) == "computed"
        )
        cached = snapshot["counts"]["done"] - computed
        with self._runs_lock:
            cells_done = run.cells_done
            num_rows = len(run.rows)
        document = {
            "run_id": run_id,
            "tenant": run.tenant,
            "state": snapshot["state"],
            "counts": snapshot["counts"],
            "computed": computed,
            "cached": cached,
            "num_cells": len(run.cells),
            "cells_done": cells_done,
            "num_rows": num_rows,
            "failures": snapshot["failures"],
        }
        self._maybe_persist(run, snapshot)
        return document

    def run_results(self, run_id: str, after: int = 0) -> dict:
        """Result rows from ``after`` on, plus the resume cursor.

        ``complete=True`` means the stream is final (every cell
        consumed); a non-``done`` terminal ``state`` with
        ``complete=False`` means the stream will never finish and the
        client should stop polling.
        """
        run = self._get_run(run_id)
        snapshot = self.scheduler.run_snapshot(run_id)
        self._advance_results(run, snapshot)
        with self._runs_lock:
            rows = [dict(row) for row in run.rows[after:]]
            cursor = len(run.rows)
            complete = run.cells_done == len(run.cells)
        self._maybe_persist(run, snapshot)
        return {
            "run_id": run_id,
            "state": snapshot["state"],
            "rows": rows,
            "next": cursor,
            "complete": complete,
        }

    def run_manifest(self, run_id: str) -> dict:
        """The run's diff-compatible manifest (as persisted on disk).

        A shared job appears as ``computed`` in the manifest of the run
        it was *charged* to (the run whose fair-share slot scheduled
        it) and ``cached`` everywhere else, so summing ``jobs.computed``
        across overlapping runs counts every union job exactly once.
        """
        run = self._get_run(run_id)
        snapshot = self.scheduler.run_snapshot(run_id)
        self._advance_results(run, snapshot)
        return self._build_manifest(run, snapshot)

    def _build_manifest(self, run: _ServiceRun, snapshot: dict) -> dict:
        charged = set(snapshot["charged"])
        results = snapshot["results"]
        order = {key: i for i, key in enumerate(snapshot["states"])}
        stats = RunStats(total=snapshot["counts"]["total"])
        entries = sorted(
            snapshot["entries"], key=lambda entry: order[entry["key"]]
        )
        for entry in entries:
            key = entry["key"]
            computed = (
                key in charged and results.get(key) == "computed"
            )
            row = dict(entry)
            row["status"] = "computed" if computed else "cached"
            slot = stats.by_kind.setdefault(
                row["kind"], {"computed": 0, "cached": 0}
            )
            if computed:
                stats.computed += 1
                slot["computed"] += 1
            else:
                stats.cached += 1
                slot["cached"] += 1
            stats.entries.append(row)
        stats.failures = snapshot["failures"]
        with self._runs_lock:
            num_cells = len(run.rows)
        return {
            "run_id": run.run_id,
            "spec": run.spec,
            "shard": None,
            "workers": 0,
            "resume": True,
            "retries": None,
            "timeout_s": None,
            "service": {
                "tenant": run.tenant,
                "scheduler": "fair-round-robin",
                "lease_ttl_s": snapshot["lease_ttl_s"],
                "max_attempts": snapshot["max_attempts"],
            },
            "jobs": stats.to_dict(),
            "num_cells": num_cells,
        }

    def _maybe_persist(self, run: _ServiceRun, snapshot: dict) -> None:
        """Write results.jsonl + manifest.json once a run completes."""
        if self.runs_root is None or snapshot["state"] != "done":
            return
        with self._runs_lock:
            if run.persisted or run.cells_done < len(run.cells):
                return
            run.persisted = True
            rows = [dict(row) for row in run.rows]
        manifest = self._build_manifest(run, snapshot)
        sink = RunSink(os.path.join(self.runs_root, run.run_id))
        sink.write_results(rows)
        sink.write_manifest(manifest)

    def cancel(self, run_id: str) -> dict:
        """Cancel a run's queued jobs (shared/leased jobs keep going)."""
        self._get_run(run_id)
        return self.scheduler.cancel_run(run_id)


class ServiceClient:
    """HTTP client for the run routes of ``repro serve`` (stdlib only).

    Sends ``Authorization: Bearer <token>`` on every request when given
    a token (``None`` suits an unauthenticated server); protocol and
    auth failures raise :class:`ServiceError` with the server's error
    message (``401`` surfaces as ``unauthorized``).
    """

    def __init__(
        self,
        base_url: str,
        token: Optional[str] = None,
        timeout_s: float = 30.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout_s = timeout_s

    def _call(
        self,
        method: str,
        path: str,
        document: Optional[dict] = None,
    ) -> dict:
        # repro: lint-ignore[RPR002] service RPC bodies are transport,
        # not content-keyed artifacts; field order is free
        body = None if document is None else json.dumps(document).encode()
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=body, method=method
        )
        if body is not None:
            request.add_header("Content-Type", "application/json")
        if self.token is not None:
            request.add_header("Authorization", f"Bearer {self.token}")
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                status, payload = response.status, response.read()
        except urllib.error.HTTPError as exc:
            status, payload = exc.code, exc.read()
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise ServiceError(
                f"service {self.base_url} unreachable: {exc}"
            ) from exc
        try:
            parsed = json.loads(payload.decode("utf-8"))
        except ValueError:
            raise ServiceError(
                f"{method} {path}: invalid JSON response "
                f"(HTTP {status})"
            ) from None
        if status != 200:
            raise ServiceError(
                f"{method} {path}: HTTP {status}: "
                f"{parsed.get('error', 'unknown error')}"
            )
        return parsed

    def ping(self) -> dict:
        """The server's ping document (raises on bad auth)."""
        return self._call("GET", "/v1/ping")

    def submit(self, document: dict) -> dict:
        """Submit a sweep spec (or single-flow) document."""
        return self._call("POST", "/v1/run", document)

    def status(self, run_id: str) -> dict:
        """One run's progress document."""
        return self._call("GET", f"/v1/run/{run_id}")

    def results(self, run_id: str, after: int = 0) -> dict:
        """Result rows from ``after`` on (incremental streaming)."""
        return self._call(
            "GET", f"/v1/run/{run_id}/results?after={int(after)}"
        )

    def manifest(self, run_id: str) -> dict:
        """The run's diff-compatible manifest."""
        return self._call("GET", f"/v1/run/{run_id}/manifest")

    def cancel(self, run_id: str) -> dict:
        """Cancel the run's queued jobs."""
        return self._call("DELETE", f"/v1/run/{run_id}")

    def wait(
        self,
        run_id: str,
        poll_s: float = 0.2,
        timeout_s: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> dict:
        """Poll until the run reaches a terminal state; returns it.

        Raises :class:`ServiceError` when ``timeout_s`` elapses first.
        """
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        while True:
            status = self.status(run_id)
            if status["state"] in TERMINAL_RUN_STATES:
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"run {run_id} still {status['state']!r} after "
                    f"{timeout_s:g}s"
                )
            sleep(poll_s)
