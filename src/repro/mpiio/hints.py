"""MPI Info hints controlling collective I/O.

Mirrors the ROMIO hint names where one exists; ParColl's controls follow
the paper's Section 4.2: the user may give either the number of
aggregators to draw from the default list (``cb_nodes``) or an explicit
list of aggregator ranks (``cb_config_ranks``), and ParColl adds the
subgroup count (``parcoll_ngroups``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

from repro.errors import MPIError, MPIIOError, ParCollError


@dataclass(frozen=True)
class IOHints:
    """Validated hint set for one open file."""

    #: collective buffer bytes per aggregator per round (ROMIO cb_buffer_size)
    cb_buffer_size: int = 4 << 20
    #: number of I/O aggregators from the default list; None = one per node
    cb_nodes: Optional[int] = None
    #: explicit aggregator ranks (communicator ranks); overrides cb_nodes
    cb_config_ranks: Optional[tuple[int, ...]] = None
    #: collective protocol used by *_all operations; any spec registered
    #: in :mod:`repro.mpiio.protocols` (e.g. 'ext2ph', 'parcoll',
    #: 'independent', 'nodeagg', 'listio', 'listio:<max_segments>')
    protocol: str = "ext2ph"
    #: list I/O: extents per file-system request (the fixed accessor-array
    #: size of a real list-I/O API); only the 'listio' protocol reads it
    listio_max_segments: int = 64
    #: ParColl: number of subgroups (file areas); 1 degenerates to ext2ph
    parcoll_ngroups: int = 1
    #: ParColl: allow switching to an intermediate file view (pattern (c))
    parcoll_intermediate_views: bool = True
    #: ParColl: data path under an intermediate view.  'physical'
    #: (default, the paper's design) groups processes by logical offsets
    #: but runs each subgroup's two-phase exchange over the original
    #: physical segments, so windows stay dense and writes coalesce;
    #: 'logical' runs the exchange in logical space and translates each
    #: shipped piece back to physical segments (simpler, but every
    #: aggregator write is scattered) — kept as an ablation.
    parcoll_data_path: str = "physical"
    #: ParColl: 'once' plans the grouping on the first collective call and
    #: reuses it (the paper partitions at file-view initiation; subsequent
    #: calls coordinate only within subgroups, letting groups drift apart);
    #: 'always' re-plans globally every call (fully general, but keeps one
    #: global collective per call); 'auto' reuses the grouping like 'once'
    #: but re-plans (globally) when the stationarity guard would otherwise
    #: reject the call — at the price of one tiny global agreement
    #: allreduce per call, so subgroups re-synchronize like 'always' but
    #: skip the extent allgather and regrouping while the pattern holds
    parcoll_replan: str = "once"
    #: align file-domain boundaries to stripe boundaries
    align_file_domains: bool = False
    #: consolidate per-core pieces through a node leader before the
    #: inter-node exchange (the paper's Section 6 multi-core future work)
    cb_node_consolidation: bool = False
    #: overlap the aggregator's file write of round r with round r+1's
    #: exchange (the split-phase collective I/O of the paper's related
    #: work [13], realized with background tasks instead of threads —
    #: Catamount has none, which is why the paper could not use it)
    pipelined_io: bool = False
    #: collective-fidelity policy for this file's collectives (any
    #: spelling in :data:`repro.simmpi.backends.SPELLINGS`); None
    #: inherits the world's policy.  Every rank opens with the same
    #: hints, so the override is installed symmetrically.
    collective_mode: Optional[str] = None
    #: run the :mod:`repro.validate` correctness oracle on this file's
    #: operations: True forces validation on, False forces it off, None
    #: (default) inherits the platform's setting (ExperimentConfig
    #: ``validate`` field / CLI ``--validate`` / ``REPRO_VALIDATE``).
    #: All ranks open with the same hints, so the choice is symmetric.
    parcoll_validate: Optional[bool] = None
    #: RPC retry-policy overrides for this file (only consulted under an
    #: active fault plan); None inherits the platform's RetryPolicy.
    #: retry_max_attempts=1 disables retry: the first lost RPC raises
    #: FaultExhaustedError.
    retry_max_attempts: Optional[int] = None
    retry_timeout: Optional[float] = None
    retry_backoff_base: Optional[float] = None
    retry_backoff_factor: Optional[float] = None
    retry_jitter: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cb_buffer_size <= 0:
            raise MPIIOError("cb_buffer_size must be positive")
        if self.collective_mode is not None:
            from repro.simmpi.backends import resolve_backend

            try:
                resolve_backend(self.collective_mode)
            except MPIError as exc:
                raise MPIIOError(str(exc)) from exc
        if self.cb_nodes is not None and self.cb_nodes <= 0:
            raise MPIIOError("cb_nodes must be positive")
        from repro.mpiio.protocols import resolve_protocol

        try:
            resolve_protocol(self.protocol)
        except ParCollError as exc:
            raise MPIIOError(str(exc)) from exc
        if self.listio_max_segments <= 0:
            raise MPIIOError("listio_max_segments must be positive")
        if self.parcoll_ngroups <= 0:
            raise MPIIOError("parcoll_ngroups must be positive")
        if self.parcoll_data_path not in ("physical", "logical"):
            raise MPIIOError(
                f"parcoll_data_path must be 'physical' or 'logical', "
                f"got {self.parcoll_data_path!r}"
            )
        if self.parcoll_replan not in ("once", "always", "auto"):
            raise MPIIOError(
                f"parcoll_replan must be 'once', 'always' or 'auto', "
                f"got {self.parcoll_replan!r}"
            )
        if self.cb_config_ranks is not None:
            if len(self.cb_config_ranks) == 0:
                raise MPIIOError("cb_config_ranks must not be empty")
            if len(set(self.cb_config_ranks)) != len(self.cb_config_ranks):
                raise MPIIOError("cb_config_ranks contains duplicates")
        if self.parcoll_validate is not None and not isinstance(
                self.parcoll_validate, bool):
            raise MPIIOError(
                f"parcoll_validate must be True, False or None, "
                f"got {self.parcoll_validate!r}")
        if self.retry_max_attempts is not None and self.retry_max_attempts < 1:
            raise MPIIOError("retry_max_attempts must be >= 1")
        if self.retry_timeout is not None and self.retry_timeout <= 0:
            raise MPIIOError("retry_timeout must be > 0")
        if self.retry_backoff_base is not None and self.retry_backoff_base < 0:
            raise MPIIOError("retry_backoff_base must be >= 0")
        if (self.retry_backoff_factor is not None
                and self.retry_backoff_factor < 1.0):
            raise MPIIOError("retry_backoff_factor must be >= 1")
        if self.retry_jitter is not None and self.retry_jitter < 0:
            raise MPIIOError("retry_jitter must be >= 0")

    def retry_overrides(self) -> dict[str, Any]:
        """The non-None retry_* fields as RetryPolicy keyword overrides."""
        out = {}
        for hint, kw in (("retry_max_attempts", "max_attempts"),
                         ("retry_timeout", "timeout"),
                         ("retry_backoff_base", "backoff_base"),
                         ("retry_backoff_factor", "backoff_factor"),
                         ("retry_jitter", "jitter")):
            val = getattr(self, hint)
            if val is not None:
                out[kw] = val
        return out

    @classmethod
    def from_dict(cls, info: Mapping[str, Any]) -> "IOHints":
        """Build from a plain ``{hint-name: value}`` mapping (MPI_Info analog)."""
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(info) - known
        if unknown:
            raise MPIIOError(f"unknown hint(s): {sorted(unknown)}")
        kwargs = dict(info)
        if "cb_config_ranks" in kwargs and kwargs["cb_config_ranks"] is not None:
            kwargs["cb_config_ranks"] = tuple(kwargs["cb_config_ranks"])
        return cls(**kwargs)

    def with_(self, **kwargs: Any) -> "IOHints":
        """Copy with overrides (validated)."""
        if "cb_config_ranks" in kwargs and kwargs["cb_config_ranks"] is not None:
            kwargs["cb_config_ranks"] = tuple(kwargs["cb_config_ranks"])
        return replace(self, **kwargs)
