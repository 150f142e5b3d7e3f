"""Lowering an extension bundle to one :class:`ProgramIR`.

Shape of the lowered program (DESIGN.md §5h):

- every component (background, each content-script group) becomes its
  own function, so ``var`` declarations stay world-local — matching the
  isolated-worlds semantics of WebExtensions. Assignments to undeclared
  names still land in the shared global scope; that conflates the
  components' globals, a sound over-approximation that is documented
  rather than fixed (components cannot *actually* share globals, so any
  flow it adds is spurious but never hides a real one);
- ``<main>`` creates a closure for each component and calls it once
  (top-level evaluation), then runs one :class:`EventLoopStmt` *per
  component*, tagged with the component's name;
- the per-component loops are chained into a single SEQ cycle
  (loop₁ → loop₂ → … → loop₁). Message dispatch is driven by the
  interpreter's channel machinery, but the *cycle* is what makes every
  channel write ICFG-reachable from every loop — the data-dependence
  pass is reaching-definitions over the ICFG, so without the cycle a
  background→content response edge would be silently dropped. The cycle
  also keeps every handler body inside a CFG cycle, so control
  dependences out of handlers classify as amplified (``local^amp``),
  exactly like the single-loop case.

Files within one component are concatenated at the parsed-statement
level; their line numbers collide (a witness line may be ambiguous
between files of the same component), which the component tag in
witnesses mitigates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.lower import Lowerer, _FunctionLowerer
from repro.ir.nodes import (
    CallStmt,
    ClosureStmt,
    EdgeKind,
    EventLoopStmt,
    ProgramIR,
)
from repro.js import ast
from repro.js.errors import SourcePosition
from repro.js.parser import SkippedStatement, parse, parse_with_recovery
from repro.webext.loader import ExtensionBundle


@dataclass
class ParsedExtension:
    """All components of a bundle parsed, before lowering.

    Splitting parse from lowering lets the prefilter (and its key
    resolution) run over the parsed file ASTs, and a prefiltered bundle
    skip lowering altogether.
    """

    #: component name -> file paths that formed it, in order.
    component_files: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Every parsed file AST (manifest order).
    parsed: tuple[ast.Program, ...] = ()
    #: Component name of each entry of ``parsed``, parallel to it.
    owners: tuple[str, ...] = ()
    #: Component names in manifest order (including file-less ones).
    order: tuple[str, ...] = ()
    #: ``(path, skipped)`` parse-recovery skips (empty unless recover).
    skipped: tuple[tuple[str, SkippedStatement], ...] = ()


@dataclass
class LoweredExtension:
    """The lowered program plus front-end bookkeeping."""

    program: ProgramIR
    #: component name -> file paths that formed it, in order.
    component_files: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Every parsed file AST (manifest order) — the prefilter unions
    #: their surfaces.
    parsed: tuple[ast.Program, ...] = ()
    #: ``(path, skipped)`` parse-recovery skips (empty unless recover).
    skipped: tuple[tuple[str, SkippedStatement], ...] = ()


def parse_extension(
    bundle: ExtensionBundle, recover: bool = False
) -> ParsedExtension:
    """Parse every component file of ``bundle``, keeping manifest order."""
    component_files: dict[str, tuple[str, ...]] = {}
    parsed: list[ast.Program] = []
    owners: list[str] = []
    order: list[str] = []
    skipped: list[tuple[str, SkippedStatement]] = []

    for component in bundle.components():
        order.append(component.name)
        for path, source in component.files:
            if recover:
                program, skips = parse_with_recovery(source, filename=path)
                skipped.extend((path, skip) for skip in skips)
            else:
                program = parse(source, filename=path)
            parsed.append(program)
            owners.append(component.name)
        component_files[component.name] = tuple(
            path for path, _ in component.files
        )

    return ParsedExtension(
        component_files=component_files,
        parsed=tuple(parsed),
        owners=tuple(owners),
        order=tuple(order),
        skipped=tuple(skipped),
    )


def lower_parsed_extension(parsed_extension: ParsedExtension) -> LoweredExtension:
    """Lower an already-parsed bundle into one program."""
    component_sources: list[tuple[str, list[ast.Statement], SourcePosition]] = []
    by_component: dict[str, list[ast.Program]] = {
        name: [] for name in parsed_extension.order
    }
    for owner, program in zip(parsed_extension.owners, parsed_extension.parsed):
        by_component[owner].append(program)
    for name in parsed_extension.order:
        statements: list[ast.Statement] = []
        position = SourcePosition(0, 0)
        for index, program in enumerate(by_component[name]):
            if index == 0:
                position = program.position
            statements.extend(program.body)
        component_sources.append((name, statements, position))

    lowerer = Lowerer()
    main = lowerer._new_function("<main>", params=[], parent=None)
    body = _FunctionLowerer(lowerer, main, chain=[main], top_level=True)
    origin = SourcePosition(0, 0)
    body.lower_body([], position=origin)

    components: dict[int, str] = {}
    for name, statements, position in component_sources:
        function = lowerer._new_function(f"<{name}>", params=[], parent=main.fid)
        function.locals.add("this")
        # chain excludes <main>: component free names resolve to globals,
        # never to <main>'s temporaries.
        sub = _FunctionLowerer(lowerer, function, chain=[function])
        sub.lower_body(statements, position=position)
        sub.finish(position=position)
        components[function.fid] = name

        # <main> evaluates the component's top level once.
        closure = body.temp()
        body.emit(
            ClosureStmt(target=closure, function_id=function.fid, position=origin)
        )
        body.emit(
            CallStmt(
                target=body.temp(), callee=closure, this=None, args=[],
                position=origin,
            )
        )

    loops = [
        body.emit(EventLoopStmt(component=name, position=origin))
        for name, _, _ in component_sources
    ]
    if not loops:
        # Degenerate extension (no scripts): keep the single generic loop
        # so the program shape matches single-file addons.
        loops = [body.emit(EventLoopStmt(position=origin))]
    # emit() chained loop_i -> loop_{i+1}; close the cycle explicitly.
    # (With one loop this is the familiar self-edge.)
    loops[-1].add_edge(loops[0].sid, EdgeKind.SEQ)
    body.finish(position=origin)

    program = ProgramIR(
        functions=lowerer.functions,
        stmts=lowerer.stmts,
        owner=lowerer.owner,
        global_names=lowerer.global_names,
        components=components,
    )
    return LoweredExtension(
        program=program,
        component_files=dict(parsed_extension.component_files),
        parsed=parsed_extension.parsed,
        skipped=parsed_extension.skipped,
    )


def lower_extension(
    bundle: ExtensionBundle, recover: bool = False
) -> LoweredExtension:
    """Assemble and lower all components of ``bundle`` into one program."""
    return lower_parsed_extension(parse_extension(bundle, recover=recover))
