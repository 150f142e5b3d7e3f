"""Golden token digests: the lexer's output, pinned input by input.

For every input below, the golden file stores either the sha256 of the
token stream (type, value, line, column, offset, ``preceded_by_newline``
of each token) or, when the lexer rejects the input, the ``LexError``
message and position. A lexer rewrite must reproduce both exactly: the
parser, recovery mode and every source span downstream read these
fields.

The inputs: the curated corpus, every ``examples/**/*.js`` file,
seeded generated single files, bundle files and update versions, and a
seeded fuzz corpus (random token soup over an alphabet that includes
CRLF, U+2028/U+2029, NBSP, BOM, unterminated comments/strings/regexes,
malformed numbers and escapes, and regex-vs-division sites, plus point
mutations of curated sources).

Regenerate (only when a lexer change is *meant* to change tokens) with:
``PYTHONPATH=src python -m tests.js.test_token_digests``
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.addons import CORPUS
from repro.corpusgen import generate_corpus, generate_updates
from repro.js.errors import LexError
from repro.js.lexer import tokenize
from repro.webext.loader import bundle_from_text, is_bundle_text

REPO = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("golden_tokens.json")

#: Fuzz atoms that lex on their own: tokens, separators (CRLF,
#: U+2028/U+2029, NBSP, BOM included), complete literals and comments.
_ATOMS = (
    "var", "x", "$a", "_b1", "return", "this", "typeof", "true", "in",
    " ", "  ", "\t", "\v", "\f", "\n", "\r", "\r\n", "\u2028", "\u2029",
    "\xa0", "\ufeff",
    "0", "1", "42", "3.14", ".5", "5.", "1e10", "2.5e-3", "7E+2", "0x1F",
    "'ab'", '"cd"', "'a\\nb'", '"\\x41"', '"\\u00e9"', "'\\q'", "'a\\\nb'",
    "'a\\\u2028b'", '"a\\\u2029b"', "'\\\\'", "'\"'",
    "/* c */", "/*\n*/", "/*\u2028*/", "/* a\r\nb */", "// c\n", "// c\u2029",
    "/re/g", "/[/]/", "/a\\/b/i", "/[\\]]/",
    "[", "]", "(", ")", "{", "}", ";", ",", ".", "=", "==",
    "===", "!==", ">>>=", ">>>", ">>", "<<=", "<", "+", "++", "-", "--",
    "*", "%", "?", ":", "!", "~", "&&", "||", "/=", "/",
)

#: Fuzz atoms that usually end the stream in a ``LexError``.
_HAZARDS = (
    "'", '"', "\\", "\\x4", "\\u12", "/*", "*/", "0x", "0xg", "1e", "1e+",
    "3foo", "0x1Fz", "@", "#", "\xe9", "`", "\x00", "'\\x4'", "'\\u12'",
    "'abc\\", "'\\\r\n'", "/[", "/a\\\nb/", "'a\nb'",
)

#: Regex-vs-division sites: the previous token decides what ``/`` is.
_SLASH_SITES = (
    "a / b / c", "a /b/ c", "(a) / 2", "f() /x/g", "x = /y/", "[1] / 2",
    "} /re/", "return /x/", "this / 2", "i++ / 2", "i-- /x/", "typeof /x/",
    "'s' / 2", "1 / 2", "/x/ / 2", "null / 1", "a\n/re/", "x /= /y/",
)

#: Named edge cases, each pinned on its own.
_EDGE_CASES = (
    "\ufeffvar a;", "a\xa0b", "a\u2028b", "a\u2029\u2029b", "a\r\rb",
    "a\n\rb", "a\r\n\r\nb", "\r\n", "/* x", "/*/", "'abc", '"a\\',
    "'a\\\r\nb'", "'a\\\rb' c", "'\\x4g'", "'\\u00'", "x = /a",
    "x = /[/", "x = /a\\", "x = /a\\\nb/\ny", "x = /a\\\r\nb/", "0x",
    "1e", "1e+", "1.e5", "1..a", ".5e", "08", "0X1f", "3in", "a = 'b\\\u2028c'\nd",
    "// only a comment", "/**/", "/***/", "x\n++y", "return\n/re/",
)


def _fuzz_inputs(seed: int = 0, count: int = 600) -> dict[str, str]:
    rng = random.Random(f"token-digests:{seed}")
    inputs = {}
    for index in range(count):
        atoms = [rng.choice(_ATOMS) for _ in range(rng.randrange(1, 24))]
        if rng.random() < 0.3:
            atoms.insert(rng.randrange(len(atoms) + 1), rng.choice(_SLASH_SITES))
        if rng.random() < 0.4:
            atoms.insert(rng.randrange(len(atoms) + 1), rng.choice(_HAZARDS))
        joiner = rng.choice(("", " ", "\n"))
        inputs[f"fuzz/{index:04d}"] = joiner.join(atoms)
    for index, site in enumerate(_SLASH_SITES):
        inputs[f"slash/{index:02d}"] = site
    for index, case in enumerate(_EDGE_CASES):
        inputs[f"edge/{index:02d}"] = case
    return inputs


def _mutated_inputs(
    sources: list[str], seed: int = 0, count: int = 200
) -> dict[str, str]:
    """Point mutations of windows of real sources: insert an atom,
    delete a character, or swap one for another."""
    rng = random.Random(f"token-mutants:{seed}")
    inputs = {}
    for index in range(count):
        source = rng.choice(sources)
        start = rng.randrange(max(1, len(source) - 300))
        text = source[start:start + rng.randrange(40, 300)]
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(len(text) + 1)
            action = rng.randrange(3)
            if action == 0:
                text = text[:at] + rng.choice(_ATOMS + _HAZARDS) + text[at:]
            elif action == 1:
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + rng.choice(_ATOMS + _HAZARDS)[:1] + text[at + 1:]
        inputs[f"mutant/{index:04d}"] = text
    return inputs


def _inputs() -> dict[str, str]:
    """Input id -> source text."""
    inputs = {f"corpus/{spec.name}": spec.source() for spec in CORPUS}
    for path in sorted((REPO / "examples").rglob("*.js")):
        inputs[f"examples/{path.relative_to(REPO / 'examples').as_posix()}"] = (
            path.read_text(encoding="utf-8")
        )
    curated = list(inputs.values())
    for addon in generate_corpus(60, seed=0):
        if is_bundle_text(addon.source):
            for path, text in bundle_from_text(addon.source).files:
                inputs[f"generated/{addon.name}/{path}"] = text
        else:
            inputs[f"generated/{addon.name}"] = addon.source
    for update in generate_updates(10, seed=0):
        if update.kind == "single":
            inputs[f"update/{update.name}/old"] = update.old_source
            inputs[f"update/{update.name}/new"] = update.new_source
    inputs.update(_fuzz_inputs())
    inputs.update(_mutated_inputs(curated))
    return inputs


INPUTS = _inputs()


def digest(source: str) -> str:
    """The token stream's sha256, or the rendered ``LexError``."""
    try:
        tokens = tokenize(source)
    except LexError as error:
        position = error.position
        return (
            f"LexError: {error.message} @ "
            f"{position.line}:{position.column}:{position.offset}"
        )
    stream = hashlib.sha256()
    for token in tokens:
        position = token.position
        stream.update(
            repr((
                token.type.name, token.value, position.line,
                position.column, position.offset, token.preceded_by_newline,
            )).encode("utf-8")
        )
    return stream.hexdigest()


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN.exists(), (
        "golden file missing; regenerate with: PYTHONPATH=src python -m "
        "tests.js.test_token_digests"
    )
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_input(golden):
    assert sorted(golden) == sorted(INPUTS)


def test_inputs_cover_both_outcomes(golden):
    errors = sum(1 for value in golden.values() if value.startswith("LexError"))
    assert 0 < errors < len(golden)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_token_digest_matches_golden(name, golden):
    assert digest(INPUTS[name]) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {name: digest(source) for name, source in INPUTS.items()},
            indent=1, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN} ({len(INPUTS)} inputs)")
