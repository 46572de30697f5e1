#!/usr/bin/env python3
"""Rebuild fixtures/demo.jsonl, the replay store for the demo task file.

The demo store is recorded from authored responses rather than a live model,
so the whole CLI demo works offline. Run from the repository root:

    python scripts/make_demo_fixtures.py [output.jsonl]

Records are keyed under the default model id; replay them without setting
ASKIT_MODEL (or with --model matching it).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from askit import (  # noqa: E402
    CodegenConfig,
    RecordingClient,
    ScriptedClient,
    ask_until_valid,
    generate,
)
from askit.clients import DEFAULT_MODEL_ID  # noqa: E402
from askit.taskfile import load_task_file  # noqa: E402

GENERATED_CODE = {
    "calculateFactorial": (
        "def calculateFactorial(*, n):\n"
        "    # Calculate the factorial of 'n'\n"
        "    result = 1\n"
        "    for i in range(2, n + 1):\n"
        "        result *= i\n"
        "    return result"
    ),
    "sumNumbers": (
        "def sumNumbers(*, ns):\n"
        "    # Calculate the sum of all numbers in 'ns'.\n"
        "    total = 0\n"
        "    for value in ns:\n"
        "        total += value\n"
        "    return total"
    ),
    "sortNumbers": (
        "def sortNumbers(*, ns):\n"
        "    # Sort the numbers 'ns' in ascending order.\n"
        "    return sorted(ns)"
    ),
    "reverseString": (
        "def reverseString(*, s):\n"
        "    # Reverse the string 's'.\n"
        "    return s[::-1]"
    ),
    "isPalindrome": (
        "def isPalindrome(*, n):\n"
        "    # Check if 'n' is a palindrome.\n"
        "    text = str(n)\n"
        "    return text == text[::-1]"
    ),
}

DIRECT_REASONS = {
    "calculateFactorial": "Multiply every integer from 1 up to n.",
    "sumNumbers": "Add the numbers one by one.",
    "sortNumbers": "Arrange the numbers from smallest to largest.",
    "reverseString": "Read the characters back to front.",
    "isPalindrome": "Compare the digits with their reverse.",
}

BOOKS_ANSWER = [
    {
        "title": "Structure and Interpretation of Computer Programs",
        "author": "Harold Abelson and Gerald Jay Sussman",
        "year": 1985,
    },
    {"title": "The Art of Computer Programming", "author": "Donald E. Knuth", "year": 1968},
    {
        "title": "Introduction to Algorithms",
        "author": "Thomas H. Cormen, Charles E. Leiserson, Ronald L. Rivest and Clifford Stein",
        "year": 1990,
    },
    {
        "title": "The C Programming Language",
        "author": "Brian W. Kernighan and Dennis M. Ritchie",
        "year": 1978,
    },
    {"title": "The Mythical Man-Month", "author": "Frederick P. Brooks Jr.", "year": 1975},
]


def envelope(reason: str, answer) -> str:
    payload = json.dumps({"reason": reason, "answer": answer}, ensure_ascii=False)
    return f"```json\n{payload}\n```"


def code_block(source: str) -> str:
    return f"Here is the implementation:\n```python\n{source}\n```"


def record_ask(store: Path, spec, args, response: str) -> None:
    client = RecordingClient(ScriptedClient([response], model_id=DEFAULT_MODEL_ID), store)
    ask_until_valid(client, spec.template, args, spec.return_schema, spec.fewshot)


def record_codegen(store: Path, spec, response: str, cache_dir: Path) -> None:
    client = RecordingClient(ScriptedClient([response], model_id=DEFAULT_MODEL_ID), store)
    generate(client, spec, CodegenConfig(cache_dir=cache_dir))


def main() -> int:
    store = Path(sys.argv[1]) if len(sys.argv) > 1 else REPO / "fixtures" / "demo.jsonl"
    store.parent.mkdir(parents=True, exist_ok=True)
    if store.exists():
        store.unlink()

    task_file = load_task_file(REPO / "tasks" / "demo.json")

    sentiment = task_file.get("getSentiment").to_spec()
    record_ask(
        store,
        sentiment,
        {"review": "The product is fantastic. It exceeds all my expectations."},
        envelope("The review praises the product without reservation.", "positive"),
    )

    books = task_file.get("getBooks").to_spec()
    record_ask(
        store,
        books,
        {"n": 5, "subject": "computer science"},
        envelope("These are widely cited classics of the field.", BOOKS_ANSWER),
    )

    with tempfile.TemporaryDirectory(prefix="askit-fixture-cache-") as scratch:
        for name, source in GENERATED_CODE.items():
            spec = task_file.get(name).to_spec()
            for example in spec.tests:
                record_ask(
                    store,
                    spec,
                    dict(example.input),
                    envelope(DIRECT_REASONS[name], example.output),
                )
            record_codegen(store, spec, code_block(source), Path(scratch))

    count = sum(1 for _ in open(store, encoding="utf-8"))
    print(f"wrote {count} records to {store}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
