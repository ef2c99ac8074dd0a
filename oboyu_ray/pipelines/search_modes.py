"""One table of retrieval modes behind CLI ``query`` and MCP ``search``.

Each row of ``MODES`` names the engine method that answers a mode, how the
mode's value maps to that method's arguments, whether the mode needs the
query text, which modifiers it honours (alone and under ``--federate``)
and how each surface spells it.  Both surfaces do the same three steps:
build a ``Request`` (``cli_request`` / ``mcp_request``), refuse it with
``validate`` before any file is read or any engine is started, and answer
it with ``run`` — the only place that calls an engine retrieval method.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

# request key → (CLI flag, MCP key); None where the surface lacks it
SPELLING = {
    "q": ("--q", "query"),
    "exclude": ("--exclude", None),
    "require_all": ("--require-all", "require_all"),
    "page": ("--page", "page"),
    "collapse": ("--collapse", "collapse"),
    "count": ("--count", "count_only"),
    "scope": ("--scope", "scope"),
    "snippet": ("--snippet", "snippet"),
    "hydrate": ("--hydrate", None),
    "federate": ("--federate", None),
}
# the plain-search-only modifiers, and the modifiers each one refuses beside it
PLAIN_ONLY = {"page": (), "collapse": ("page", "count"),
              "count": ("snippet", "page", "hydrate")}

_BASE = frozenset({"scope", "hydrate", "snippet"})


def _q(q, v):
    return (q,), {}


def _pattern(q, v):
    return (v,), {}


@dataclass(frozen=True)
class Mode:
    name: str  # request key: the CLI option's dest
    method: str  # engine method that answers the mode
    call: Callable[[Optional[str], Any], Tuple[tuple, dict]]  # (q, value) → args
    cli: Optional[str]  # CLI flag; None where the CLI lacks the mode
    mcp: Optional[str]  # MCP key; None where MCP lacks the mode
    needs_q: bool = True
    honours: frozenset = _BASE
    federate: Optional[frozenset] = None  # honoured under --federate; None = refused
    resolve: bool = True  # the method takes resolve= (its resolution is optional)
    terms: int = 0  # exact number of query terms the mode takes (0 = any)
    cli_file: bool = False  # the CLI value names a JSON file holding the value


MODES = (
    Mode("plain", "search", _q, None, None, resolve=False,
         honours=_BASE | {"exclude", "require_all", *PLAIN_ONLY},
         federate=frozenset({"exclude", "require_all", "count", "hydrate"})),
    Mode("phrase", "search_phrase", _q, "--phrase", "phrase", resolve=False),
    Mode("prefix", "search_prefix", _q, "--prefix", "prefix"),
    Mode("near", "search_near", lambda q, v: (tuple(q.split()), {"window": int(v)}),
         "--near", "near", resolve=False, terms=2),
    Mode("span_near", "search_span_near", lambda q, v: ((q,), {"window": int(v)}),
         "--span-near", "span_near", resolve=False),
    Mode("fuzzy", "search_fuzzy", lambda q, v: ((q,), {"max_edits": int(v)}),
         "--fuzzy", "fuzzy", federate=frozenset()),
    Mode("regex", "search_regex", _pattern, "--regex", "regex", needs_q=False),
    Mode("wildcard", "search_wildcard", _pattern, "--wildcard", "wildcard",
         needs_q=False),
    Mode("more_like", "more_like_this", lambda q, v: ((int(v),), {}),
         "--more-like", None, needs_q=False),
    Mode("bool_expr", "search_bool", _pattern, "--bool", "bool_query",
         needs_q=False),
    Mode("synonyms", "search_synonym", lambda q, v: ((q, v), {}),
         "--synonyms", None, cli_file=True),
    Mode("dismax", "search_dismax", lambda q, v: ((q,), {"tiebreak": float(v)}),
         "--dismax", "dismax"),
    Mode("boosts", "search_boosted",
         lambda q, v: ((q, {str(t): float(w) for t, w in v.items()}), {}),
         "--boosts", "boosts", honours=_BASE | {"exclude"}, cli_file=True),
)
PLAIN = MODES[0]

# every CLI `query` option a request or the engine reads; a programmatic
# Namespace may leave any of them out
CLI_DEFAULTS = dict.fromkeys([*SPELLING, *(m.name for m in MODES if m.cli),
                              "config", "k", "num_shards", "num_cpus"])


@dataclass
class Request:
    surface: str  # "cli" or "mcp": how messages spell flags
    q: Optional[str] = None
    modes: Dict[str, Any] = field(default_factory=dict)  # on mode → value
    k: int = 10
    hydrate: bool = False
    require_all: bool = False
    exclude: Optional[str] = None
    page: int = 0
    collapse: bool = False
    count: bool = False
    scope: Any = None  # "LO:HI" or [lo, hi], checked by ``_scope``
    snippet: bool = False
    federate: Optional[str] = None


def _on(v) -> bool:
    return v is not None and v is not False and v not in ("", {})


def cli_request(a: Dict[str, Any]) -> Request:
    """The request of CLI ``query`` options (``CLI_DEFAULTS`` filled in):
    what the caller typed, before any ``--config`` default."""
    return Request(
        "cli", a["q"], {m.name: a[m.name] for m in MODES if m.cli and _on(a[m.name])},
        hydrate=a["hydrate"], require_all=a["require_all"], exclude=a["exclude"],
        page=int(a["page"] or 0), collapse=a["collapse"], count=a["count"],
        scope=a["scope"], snippet=a["snippet"], federate=a["federate"],
    )


def mcp_request(query: str, top_k: int = 5, require_all: bool = False,
                page: int = 0, scope=None, snippet: bool = False,
                count_only: bool = False, collapse: bool = False,
                **modes) -> Request:
    """The request of MCP ``search`` arguments.  A pattern mode switched on
    by a boolean (regex, wildcard, bool_query) takes the query as its
    pattern; results carry the document text, a bare count has none."""
    keys = {m.mcp: m for m in MODES if m.mcp}
    unknown = sorted(set(modes) - set(keys))
    if unknown:
        raise TypeError(f"search got unexpected arguments: {', '.join(unknown)}")
    on = {keys[key].name: query if v is True and not keys[key].needs_q else v
          for key, v in modes.items() if _on(v)}
    return Request(
        "mcp", query, on, k=int(top_k), hydrate=not count_only,
        require_all=require_all, page=int(page), collapse=collapse,
        count=count_only, scope=scope, snippet=snippet,
    )


def read_cli_files(req: Request) -> None:
    """Replace each CLI mode value that names a JSON file with its content."""
    for m in MODES:
        if m.cli_file and m.name in req.modes:
            path = req.modes[m.name]
            try:
                with open(path) as f:
                    req.modes[m.name] = json.load(f)
            except (OSError, ValueError) as e:
                raise ValueError(
                    f"{m.cli} {path}: {getattr(e, 'strerror', None) or e}"
                ) from None
            _check_value(req, m)


def _check_value(req: Request, mode: Mode) -> None:
    """Run the mode's own value mapping, so an ill-typed value is refused
    before any engine starts, naming the flag or key."""
    value = req.modes[mode.name]
    try:
        mode.call(req.q, value)
    except (AttributeError, TypeError, ValueError) as e:
        raise ValueError(
            f"{_names(req)[mode.name]} got an invalid value {value!r}: {e}"
        ) from None


def _names(req: Request) -> Dict[str, Optional[str]]:
    i = req.surface == "mcp"
    return {**{key: s[i] for key, s in SPELLING.items()},
            **{m.name: (m.cli, m.mcp)[i] for m in MODES}}


def _plain_only(req: Request, key: str, on: list, n: Dict) -> None:
    clash = [n[c] for c in PLAIN_ONLY[key] if getattr(req, c)]
    federated = req.federate and key not in PLAIN.federate
    if getattr(req, key) and (on or clash or federated):
        raise ValueError(
            f"{n[key]} is only supported in plain search mode"
            + (f", not with {', '.join(clash)}" if clash else "")
        )


def _scope(req: Request) -> Optional[Tuple[int, int]]:
    """The request's ``[lo, hi)`` doc_num scope; None when unset."""
    if not req.scope:
        return None
    parts = req.scope.split(":") if isinstance(req.scope, str) else req.scope
    try:
        lo, hi = (int(x) for x in parts)
    except (TypeError, ValueError):
        form = "LO:HI" if req.surface == "cli" else "[lo, hi]"
        raise ValueError(
            f"{_names(req)['scope']} takes two integer bounds {form}, "
            f"got {req.scope!r}"
        ) from None
    return lo, hi


def validate(req: Request) -> None:
    """Raise ValueError for a request the surfaces refuse, naming each flag
    as the caller spells it.  Checks run in order: query text, page,
    collapse, one mode, modifiers the mode would drop, federation, count,
    then the form of the scope, of the query and of the mode's value."""
    n = _names(req)
    on = [m for m in MODES if m.name in req.modes]
    mode = on[0] if on else PLAIN
    if not req.q and all(m.needs_q for m in on or [PLAIN]):
        free = "/".join(n[m.name] for m in MODES if not m.needs_q and n[m.name])
        raise ValueError(f"{n['q']} is required (except with {free})")
    if req.page < 0:
        raise ValueError(f"{n['page']} must be >= 0, got {req.page}")
    _plain_only(req, "page", on, n)
    _plain_only(req, "collapse", on, n)
    if len(on) > 1:
        raise ValueError(
            ", ".join(n[m.name] for m in on) + " are mutually exclusive"
        )
    dropped = [n[key] for key in ("exclude", "require_all")
               if getattr(req, key) and key not in mode.honours]
    if dropped:
        raise ValueError(
            f"{', '.join(dropped)} is not supported with {n[mode.name]}"
        )
    if req.federate:
        fed = mode.federate or frozenset()
        bad = [] if mode.federate is not None else [n[mode.name]]
        bad += [n[key] for key in SPELLING if key in PLAIN.honours
                and getattr(req, key) and key not in fed]
        if bad:
            federated_mode = on and mode.federate is not None
            with_mode = f" with {n[mode.name]}" if federated_mode else ""
            raise ValueError(
                f"{n['federate']} does not support: {', '.join(bad)}{with_mode}"
            )
    _plain_only(req, "count", on, n)
    _scope(req)
    if mode.terms and len((req.q or "").split()) != mode.terms:
        raise ValueError(
            f"{n[mode.name]} takes exactly {mode.terms} terms in {n['q']}"
        )
    if on and not (mode.cli_file and req.surface == "cli"):
        _check_value(req, mode)  # a CLI file is checked once it is read


def run(engine, req: Request):
    """Answer a validated request with its one engine call: a result frame,
    or the matching-document count under ``count``."""
    mode = next((m for m in MODES if m.name in req.modes), PLAIN)
    honours = mode.federate if req.federate else mode.honours
    kw = {key: getattr(req, key) for key in ("require_all", "exclude")
          if key in honours}
    if "scope" in honours:
        kw["scope"] = _scope(req)
    if req.count:
        return int(engine.count_matches(req.q, **kw))
    if "hydrate" in honours:
        kw["hydrate"] = req.hydrate
    if mode.resolve and not req.federate:
        kw["resolve"] = True
    args, extra = mode.call(req.q, req.modes.get(mode.name))
    method = mode.method
    if req.collapse:
        method = "search_collapse"
    elif req.page:
        method, extra = "search_page", {"page": req.page}
    out = getattr(engine, method)(*args, k=req.k, **extra, **kw)
    if req.snippet:
        # reference result shape: a highlighted snippet per hit; it needs the
        # text, which stays in the frame only when hydration was asked for
        if "text" not in out.columns and len(out):
            out = engine._hydrate(out)
        out = engine.attach_snippets(out, req.q or "", highlight=True)
        if not req.hydrate and "text" in out.columns:
            out = out.drop(columns=["text"])
    return out
