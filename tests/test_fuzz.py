"""Seeded fuzz over the CLI: mutated event streams never escape as an
exception, exit 0, 1 or 2, and every input error names ``path:line``."""

from __future__ import annotations

import json
import random
import re

import pytest

from smmtrack.cli import main

SEED = 20261019
CASES = 250
# errors of the forecast stage, raised over counts rather than at a line
FORECAST_ERRORS = ("EmptyPredictorSet", "SchemeMismatch", "UnknownTarget",
                   "LengthMismatch", "DegenerateVariance", "InsufficientSamples")
ODD_VALUES = [None, True, -1, 0, 1, 2.5, 10**30, 1e308, -0.0, "", "x", "assert",
              "retract", "photographer", "é", [], {}, {"id": "p"}]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_corpus")
    assert main(["generate", "--out-dir", str(root), "--seed", "7",
                 "--teams", "3", "--levels", "2"]) == 0
    events = sorted(root.glob("events_t*.jsonl"))
    return root / "scenario.json", [path.read_text().splitlines() for path in events]


def mutate_field(rng, line):
    try:
        doc = json.loads(line)
    except ValueError:
        return line
    if not isinstance(doc, dict) or not doc:
        return line
    target = doc
    if isinstance(doc.get("proposition"), dict) and rng.random() < 0.3:
        target = doc["proposition"]
    key = rng.choice(sorted(target))
    if rng.random() < 0.15:
        del target[key]
    else:
        target[key] = rng.choice(ODD_VALUES)
    return json.dumps(doc, separators=(",", ":"))


def truncate(rng, line):
    return line[:rng.randrange(len(line) + 1)]


def mutate_char(rng, line):
    if not line:
        return line
    at = rng.randrange(len(line))
    return line[:at] + rng.choice('{}[]",:0-9 \\é\x00\ud800') + line[at + 1:]


def flip_op(rng, line):
    if '"op":"assert"' in line:
        return line.replace('"op":"assert"', '"op":"retract"')
    return line.replace('"op":"retract"', '"op":"assert"')


LINE_MUTATIONS = (mutate_field, truncate, mutate_char, flip_op)


def mutate_file(rng, lines):
    lines = list(lines)
    what = rng.randrange(5)
    if what == 0 and lines:
        at = rng.randrange(len(lines))
        lines[at] = rng.choice(LINE_MUTATIONS)(rng, lines[at])
    elif what == 1:
        rng.shuffle(lines)
    elif what == 2 and len(lines) > 1:
        i, j = rng.sample(range(len(lines)), 2)
        lines[i], lines[j] = lines[j], lines[i]
    elif what == 3 and lines:
        at = rng.randrange(len(lines))
        lines.insert(rng.randrange(len(lines) + 1), lines[at])
    elif lines:
        del lines[rng.randrange(len(lines)):]
    return lines


def fuzz_case(rng, streams, tmp_path, case):
    """Write one mutated set of events files; return their paths."""
    chosen = [list(lines) for lines in rng.sample(streams, rng.randint(1, len(streams)))]
    for _ in range(rng.randint(1, 3)):
        index = rng.randrange(len(chosen))
        chosen[index] = mutate_file(rng, chosen[index])
    paths = []
    for index, lines in enumerate(chosen):
        path = tmp_path / f"case{case:03d}_{index}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogatepass")
        paths.append(str(path))
    if rng.random() < 0.2:
        paths.append(rng.choice(paths))  # the same file twice
    return paths


def test_mutated_streams_exit_cleanly_and_locate_errors(corpus, tmp_path, capsys):
    scenario, streams = corpus
    rng = random.Random(SEED)
    codes = []
    for case in range(CASES):
        paths = fuzz_case(rng, streams, tmp_path, case)
        command = rng.choice(("analyze", "report"))
        code = main([command, "--scenario", str(scenario), "--events", *paths,
                     "--format", "json"])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (case, code, err)
        if code == 1:
            located = any(re.search(re.escape(path) + r":\d+", err) for path in paths)
            assert located or err.startswith(FORECAST_ERRORS), (case, err)
        codes.append(code)
    # the mutations reach both the accepting and the rejecting paths
    assert codes.count(0) >= CASES // 20 and codes.count(1) >= CASES // 20
