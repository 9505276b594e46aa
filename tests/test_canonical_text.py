"""The canonical printer, pinned byte for byte.

The digest below is the SHA-256 of the canonical text of a seeded corpus:
random expressions, their collect keys, both determining systems and every
fixture string that parses. A change to how the printer signs, brackets or
abbreviates any of them changes the digest; such a change is a change of
the output contract and needs a new digest on purpose.
"""
import hashlib
import json
import random
from pathlib import Path

from qcsym import classify
from qcsym.calculus import collect
from qcsym.determining import EvolutionEq, generate_determining_system
from qcsym.errors import TermLanguageError
from qcsym.parser import parse

from conftest import random_expr

CANONICAL_TEXT_SHA256 = "201d803213648439ea002f475379d8eac3a6fb2d1964ba3d887ab23674f1a1e9"


def _strings(doc):
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, list):
        for item in doc:
            yield from _strings(item)
    elif isinstance(doc, dict):
        for item in doc.values():
            yield from _strings(item)


def canonical_corpus() -> list:
    out = []
    rng = random.Random(9)
    for i in range(1500):
        e = random_expr(rng, max_terms=4, with_denominator=i % 2 == 0)
        out.append(str(e))
        out.extend(str(key) for key in collect(e))
    for eq in (EvolutionEq.power(), EvolutionEq.exponential()):
        system = generate_determining_system(eq)
        out.extend(str(e) for e in system.equations)
    for path in sorted((Path(classify.__file__).parent / "fixtures").iterdir()):
        text = path.read_text()
        doc = json.loads(text) if path.suffix == ".json" else text.strip()
        for s in _strings(doc):
            try:
                out.append(str(parse(s)))
            except TermLanguageError:
                out.append("unparsed: " + s)
    return out


def test_canonical_text_is_pinned():
    text = "\n".join(canonical_corpus())
    assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_TEXT_SHA256
