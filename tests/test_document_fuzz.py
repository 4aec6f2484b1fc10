"""Seeded fuzz over the scenario and ledger documents: one member at a random
key path is replaced, deleted or added, and the reader either accepts the
result or raises an ``SmmError`` that names a line, or a key path that
resolves in the mutated document."""

from __future__ import annotations

import copy
import json
import random

import pytest

from smmtrack import fixture_path
from smmtrack.errors import SmmError
from smmtrack.ingest import parse_scenario
from smmtrack.synth import GenConfig, generate, load_ledger, write_corpus
from test_fuzz import ODD_VALUES

SEED = 20261020
CASES = 1000  # per document
# names an added member may take: none holds a ".", which separates key path segments
NEW_KEYS = ["extra", "", "1", "5", "level", "id", "facts", "positions", "notes"]


def load_documents(root):
    """The documents to mutate, each with the reader of its text."""
    write_corpus(generate(GenConfig(teams=2, levels=2, seed=7)), str(root))
    ledger_path = root / "mutated_ledger.json"

    def read_ledger(text):
        ledger_path.write_text(text, encoding="utf-8")
        return load_ledger(str(ledger_path))

    def read_scenario(text):
        return parse_scenario(text, path="scenario.json")

    def document(name):
        return json.loads((root / name).read_text(encoding="utf-8"))

    with open(fixture_path("scenario_dyad.json"), encoding="utf-8") as handle:
        dyad = json.load(handle)
    return {"dyad scenario": (dyad, read_scenario),
            "generated scenario": (document("scenario.json"), read_scenario),
            "ledger": (document("ledger.json"), read_ledger)}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    return load_documents(tmp_path_factory.mktemp("documents"))


def mutate(rng, doc):
    """A copy of ``doc`` with one member replaced, deleted or added: the walk
    descends from the root into a random non-empty member until it stops."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = rng.choice(keys) if keys else None
        child = node[key] if keys else None
        if isinstance(child, (dict, list)) and child and rng.random() < 0.6:
            node = child
            continue
        # an odd value, or a sibling's, which reaches the checks for repeats
        value = copy.deepcopy(rng.choice(ODD_VALUES) if not keys or rng.random() < 0.7
                              else node[rng.choice(keys)])
        move = rng.randrange(3) if keys else 2
        if move == 0:
            node[key] = value
        elif move == 1:
            del node[key]
        elif isinstance(node, dict):
            node[rng.choice(NEW_KEYS)] = value
        else:
            node.insert(rng.randrange(len(node) + 1), value)
        return doc


def mutation_cases(documents, seed=SEED, count=CASES):
    """``(name, mutated document, reader)`` for ``count`` mutations of each document."""
    rng = random.Random(seed)
    for name, (doc, read) in documents.items():
        for _ in range(count):
            yield name, mutate(rng, doc), read


def resolves(doc, key):
    """Whether every segment of ``key`` but the last exists in ``doc``, and
    the last names a member of an object or an index inside a list."""
    if key is None:
        return False
    *parents, last = key.split(".")
    node = doc
    for segment in parents:
        if isinstance(node, dict) and segment in node:
            node = node[segment]
        elif isinstance(node, list) and segment.isdigit() and int(segment) < len(node):
            node = node[int(segment)]
        else:
            return False
    return isinstance(node, dict) or (
        isinstance(node, list) and last.isdigit() and int(last) < len(node))


def test_mutated_documents_raise_located_errors(documents):
    outcomes = {name: [0, 0] for name in documents}  # accepted, rejected
    for name, mutated, read in mutation_cases(documents):
        try:
            read(json.dumps(mutated, indent=2))
        except SmmError as exc:
            outcomes[name][1] += 1
            assert exc.line is not None or resolves(mutated, exc.key), (name, str(exc))
        else:
            outcomes[name][0] += 1
    # the mutations reach both the accepting and the rejecting paths
    for name, (accepted, rejected) in outcomes.items():
        assert accepted >= CASES // 20 and rejected >= CASES // 5, (name, accepted, rejected)
