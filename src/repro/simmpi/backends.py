"""Collective-fidelity policy: which execution path each collective takes.

Every collective invocation runs at one of two fidelities:

``analytic``
    the LogP site model (:mod:`repro.simmpi.analytic`) — one
    synchronization event per collective, no messages;
``detailed``
    the message schedule (:mod:`repro.simmpi.collectives_detailed`) —
    every tree/ring/pairwise message is simulated; synchronizing rounds
    replay it through the round walker
    (:mod:`repro.simmpi.collectives_macro`), bit-identical to one
    engine event per message.  The walker is the only coalescing path:
    point-to-point exchange sends go one message at a time under every
    fidelity.  ``macro`` is an alias of it.

A :class:`FidelityPolicy` is an ordered table of :class:`Rule` rows plus
a default fidelity: the first rule matching a call's time-accounting
category ('sync' / 'exchange' / 'io' — the labels the breakdown uses),
declared per-rank size and communicator scope (world versus derived)
picks the fidelity.  Policies are built from spec strings only, by
:func:`resolve_backend`; :data:`SPELLINGS` lists every accepted spelling.
``hybrid`` is the per-phase cost separation ParColl's ext2ph breakdown
is built on; ``scoped`` is the world-versus-FA-subgroup split the
sharded DES needs (:mod:`repro.shard.plan`).

All ranks must run any given collective through the same fidelity — a
policy is world-global or installed symmetrically on every rank's handle
(``Communicator.with_backend``, the ``collective_mode`` I/O hint),
exactly like the MPI requirement that collectives match across ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import MPIError

#: every fidelity spelling -> the fidelity it selects
_LEAVES = {"analytic": "analytic", "detailed": "detailed", "macro": "detailed"}
#: the execution paths a rule can pick
FIDELITIES = tuple(dict.fromkeys(_LEAVES.values()))

#: spelling -> (syntax, what it selects); the CLI prints this table
SPELLINGS: dict[str, tuple[str, str]] = {
    "analytic": ("analytic", "every collective is a LogP synchronization "
                 "site (no messages)"),
    "detailed": ("detailed", "every collective runs its message schedule "
                 "(synchronizing rounds replayed in closed form)"),
    "macro": ("macro", "alias of detailed"),
    "hybrid": ("hybrid[:<category>=<fidelity>,...][,default=<fidelity>]",
               "per time-accounting category (sync/exchange/io); "
               "unlisted categories take the default"),
    "sizethreshold": ("sizethreshold[:<bytes>][,below=<fidelity>]"
                      "[,above=<fidelity>]",
                      "by declared per-rank size: 'above' at or over "
                      "<bytes>, 'below' under it or when undeclared"),
    "scoped": ("scoped[:world=<fidelity>][,default=<fidelity>]",
               "world-communicator collectives at one fidelity, derived "
               "communicators (FA subgroups) at another"),
}

#: ``sizethreshold`` bound when the spec gives none
_DEFAULT_THRESHOLD = 64 << 10
#: options a bare composite spelling stands for
_BARE = {"hybrid": "sync=analytic,default=detailed",
         "sizethreshold": "",
         "scoped": "world=analytic,default=detailed"}
#: option keys each composite accepts (None: any category name), with
#: the fidelities of keys a spec leaves out
_KEYS: dict[str, tuple[Optional[tuple[str, ...]], dict[str, str]]] = {
    "hybrid": (None, {"default": "detailed"}),
    "sizethreshold": (("below", "above"),
                      {"below": "detailed", "above": "analytic"}),
    "scoped": (("world", "default"), {"world": "analytic",
                                      "default": "detailed"}),
}


@dataclass(frozen=True)
class Rule:
    """One row of a policy: the calls it matches run at ``fidelity``."""

    fidelity: str
    #: time-accounting category of the call; None matches any
    category: Optional[str] = None
    #: smallest declared per-rank size that matches; None matches any
    #: size, and an undeclared size never meets a bound — introspected
    #: payloads are the small control-plane messages, and rank-local
    #: sizing must not steer dispatch
    min_bytes: Optional[int] = None
    #: match only collectives issued on the world communicator
    #: (context 0); call sites without a communicator count as derived
    world: bool = False

    def matches(self, category: str, nbytes: Optional[int], comm) -> bool:
        return ((self.category is None or self.category == category)
                and (self.min_bytes is None
                     or (nbytes is not None and nbytes >= self.min_bytes))
                and (not self.world
                     or (comm is not None and comm.desc.ctx == 0)))


@dataclass(frozen=True)
class FidelityPolicy:
    """Ordered rule table choosing the fidelity of each collective."""

    rules: tuple[Rule, ...]
    default: str
    #: canonical spec string; :func:`resolve_backend` rebuilds the policy
    spec: str

    def fidelity(self, category: str, nbytes: Optional[int] = None,
                 comm=None) -> str:
        """Fidelity for one collective.

        ``category`` is the time-accounting category the call site
        charges the collective to; ``nbytes`` the caller-declared
        per-rank message size (None when the call site sized the payload
        by introspection); ``comm`` the issuing communicator.  All three
        are rank-symmetric, so every rank gets the same answer.
        """
        for rule in self.rules:
            if rule.matches(category, nbytes, comm):
                return rule.fidelity
        return self.default

    def world_fidelities(self) -> frozenset[str]:
        """Every fidelity a world-communicator collective can get."""
        out = set()
        for rule in self.rules:
            out.add(rule.fidelity)
            if rule.category is None and rule.min_bytes is None:
                return frozenset(out)  # later rows are unreachable
        return frozenset(out | {self.default})

    def describe(self) -> str:
        return self.spec


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(SPELLINGS))


def resolve_backend(spec: str) -> FidelityPolicy:
    """Parse any spelling in :data:`SPELLINGS` into its rule table."""
    if not isinstance(spec, str):
        raise MPIError(f"collective backend spec must be a string, got "
                       f"{type(spec).__name__}")
    name, _, options = spec.partition(":")
    if name not in SPELLINGS:
        raise MPIError(
            f"unknown collective backend {name!r}; registered backends: "
            f"{', '.join(available_backends())}")
    if name in _LEAVES:
        if options:
            raise MPIError(f"collective backend {name!r} takes no options, "
                           f"got {options!r}")
        return FidelityPolicy((), _LEAVES[name], _LEAVES[name])
    items = (options or _BARE[name]).split(",")
    threshold = _DEFAULT_THRESHOLD
    if name == "sizethreshold" and "=" not in items[0]:
        head = items.pop(0).strip()
        if head:
            try:
                threshold = int(head)
            except ValueError:
                raise MPIError(f"sizethreshold: expected an integer byte "
                               f"threshold, got {head!r}") from None
            if threshold <= 0:
                raise MPIError(f"sizethreshold: threshold must be > 0 "
                               f"bytes, got {threshold}")
    keys, defaults = _KEYS[name]
    values = dict(defaults)
    for item in items:
        key, sep, fid = (s.strip() for s in item.partition("="))
        if not sep or not key or not fid or (keys and key not in keys):
            raise MPIError(f"malformed {name} backend entry {item!r}; "
                           f"expected {SPELLINGS[name][0]!r}")
        values[key] = fid
    for key, fid in values.items():
        if fid not in _LEAVES:
            raise MPIError(f"{name} fidelity for {key!r} must be one of "
                           f"{tuple(_LEAVES)}, got {fid!r}")
        values[key] = _LEAVES[fid]
    if name == "hybrid":
        default = values.pop("default")
        table = sorted(values.items())
        parts = [f"{c}={f}" for c, f in table] + [f"default={default}"]
        return FidelityPolicy(tuple(Rule(f, category=c) for c, f in table),
                              default, f"hybrid:{','.join(parts)}")
    if name == "sizethreshold":
        below, above = values["below"], values["above"]
        spec = f"sizethreshold:{threshold}"
        if below != "detailed":
            spec += f",below={below}"
        if above != "analytic":
            spec += f",above={above}"
        return FidelityPolicy((Rule(above, min_bytes=threshold),), below,
                              spec)
    world, default = values["world"], values["default"]
    return FidelityPolicy((Rule(world, world=True),), default,
                          f"scoped:world={world},default={default}")
