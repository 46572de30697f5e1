"""Seeded input generator for the askit benchmark.

Everything a workload feeds to askit is made here from a seed: codable tasks
with their test examples, the scripted candidate sequence for each task, the
direct-path tasks with their scripted replies, and the payloads of compiled
calls. Expected values come from the plain Python reference functions in this
file, never from askit.

The cost structure of an input set does not depend on the seed: reject
counts, reject kinds, test counts and payload sizes are fixed multisets that
the seed only shuffles, so two seeds of the same size differ in content and
order but not in how much work they ask for.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

MODEL_ID = "perfbench-replay"
WRONG_VALUE = "perfbench-wrong"
# Relative to the harness scratch directory, so it points outside it.
ESCAPE_FILE = "escape.txt"

WORDS = (
    "apple river stone cloud ember violet harbor lantern meadow copper"
    " falcon orchid summit thistle willow quartz saddle beacon cinder maple"
).split()
POSITIVE = ("great", "fantastic", "love", "excellent", "pleasant")
NEGATIVE = ("awful", "broken", "hate", "poor", "disappointing")
NEUTRAL = ("arrived", "box", "package", "colour", "tuesday", "manual", "size")


# --- reference functions ---------------------------------------------------


def ref_sum_ints(ns):
    return sum(ns)


def ref_mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def ref_is_ascending(ns):
    return all(a <= b for a, b in zip(ns, ns[1:]))


def ref_reverse(s):
    return s[::-1]


def ref_sign(n):
    return "negative" if n < 0 else "zero" if n == 0 else "positive"


def ref_min_max(ns):
    return {"lo": min(ns), "hi": max(ns)}


def ref_pair_up(ns):
    return [ns[i : i + 2] for i in range(0, len(ns), 2)]


def ref_word_counts(text):
    counts: dict[str, int] = {}
    for word in text.split():
        counts[word] = counts.get(word, 0) + 1
    return [{"word": word, "count": count} for word, count in counts.items()]


def ref_record_event(name):
    return None


def ref_scale(xs, k):
    return [x * k for x in xs]


def ref_word_lengths(words):
    return [len(word) for word in words]


def ref_parity(n):
    return "even" if n % 2 == 0 else "odd"


def ref_sort(ns):
    return sorted(ns)


def ref_count_vowels(s):
    return sum(1 for char in s if char in "aeiou")


def ref_sentiment(review):
    words = review.split()
    score = sum(word in POSITIVE for word in words) - sum(word in NEGATIVE for word in words)
    return "positive" if score > 0 else "negative" if score < 0 else "neutral"


def ref_person(line):
    name, _, rest = line.partition(" is ")
    return {"name": name, "age": int(rest.split()[0])}


def ref_books(n, subject):
    return [
        {"title": f"{subject.title()} Volume {i + 1}", "year": 1950 + (len(subject) * 7 + i * 13) % 70}
        for i in range(n)
    ]


def ref_group_orders(orders):
    groups: dict[str, list] = {}
    for order in orders:
        customer, sku, qty = order.split(":")
        groups.setdefault(customer, []).append({"sku": sku, "qty": int(qty)})
    return [{"customer": customer, "items": items} for customer, items in groups.items()]


# --- codable task families -------------------------------------------------


@dataclass(frozen=True)
class Family:
    stem: str
    template: str
    params: dict[str, str]
    returns: str
    reference: Callable[..., Any]
    body: tuple[str, ...]  # function body lines, 4-space indented
    make_input: Callable[[random.Random], dict]
    prelude: tuple[str, ...] = ()  # module-level lines before the function


def _ints(rng, lo=0, hi=8):
    return [rng.randint(-50, 50) for _ in range(rng.randint(lo, hi))]


def _text(rng, count):
    return " ".join(rng.choice(WORDS[:6]) for _ in range(count))


FAMILIES = (
    Family("sumInts", "Return the sum of the integers in {{ns}}.", {"ns": "list(int)"}, "int",
           ref_sum_ints, ("    return sum(ns)",), lambda r: {"ns": _ints(r)}),
    Family("meanOf", "Return the arithmetic mean of {{xs}}, or 0.0 when it is empty.",
           {"xs": "list(float)"}, "float", ref_mean,
           ("    return sum(xs) / len(xs) if xs else 0.0",),
           lambda r: {"xs": [round(r.uniform(-100, 100), 2) for _ in range(r.randint(1, 6))]}),
    Family("isAscending", "Tell whether {{ns}} is sorted in non-decreasing order.",
           {"ns": "list(int)"}, "bool", ref_is_ascending,
           ("    return all(a <= b for a, b in zip(ns, ns[1:]))",),
           lambda r: {"ns": sorted(_ints(r, 2)) if r.random() < 0.5 else _ints(r, 2)}),
    Family("reverseText", "Reverse the text {{s}}.", {"s": "str"}, "str", ref_reverse,
           ("    return s[::-1]",), lambda r: {"s": _text(r, r.randint(1, 4))}),
    Family("signOf", "Classify the sign of {{n}}.", {"n": "int"},
           "union(literal('negative'), literal('zero'), literal('positive'))", ref_sign,
           ("    if n < 0:", "        return 'negative'", "    return 'zero' if n == 0 else 'positive'"),
           lambda r: {"n": r.choice((0, r.randint(-99, -1), r.randint(1, 99)))}),
    Family("minMax", "Return the smallest and largest of {{ns}} as lo and hi.",
           {"ns": "list(int)"}, "dict({'lo': int, 'hi': int})", ref_min_max,
           ("    return {'lo': min(ns), 'hi': max(ns)}",), lambda r: {"ns": _ints(r, 1)}),
    Family("pairUp", "Split {{ns}} into consecutive pairs; a lone last item forms its own group.",
           {"ns": "list(int)"}, "list(list(int))", ref_pair_up,
           ("    return [ns[i:i + 2] for i in range(0, len(ns), 2)]",), lambda r: {"ns": _ints(r)}),
    Family("wordCounts", "Count each word of {{text}} in order of first appearance.",
           {"text": "str"}, "list(dict({'word': str, 'count': int}))", ref_word_counts,
           ("    counts = {}", "    for word in text.split():",
            "        counts[word] = counts.get(word, 0) + 1",
            "    return [{'word': w, 'count': c} for w, c in counts.items()]"),
           lambda r: {"text": _text(r, r.randint(0, 7))}),
    Family("recordEvent", "Record the event {{name}} in the module log.", {"name": "str"}, "void",
           ref_record_event, ("    _LOG.append(name)",), lambda r: {"name": r.choice(WORDS)},
           prelude=("_LOG = []", "", "")),
    Family("scaleBy", "Multiply every number in {{xs}} by {{k}}.",
           {"xs": "list(float)", "k": "float"}, "list(float)", ref_scale,
           ("    return [x * k for x in xs]",),
           lambda r: {"xs": [round(r.uniform(-10, 10), 3) for _ in range(r.randint(0, 5))],
                      "k": round(r.uniform(-3, 3), 2)}),
    Family("wordLengths", "Return the length of each word in {{words}}.", {"words": "list(str)"},
           "list(int)", ref_word_lengths, ("    return [len(word) for word in words]",),
           lambda r: {"words": r.sample(WORDS, r.randint(0, 5))}),
    Family("parityOf", "Tell whether {{n}} is even or odd.", {"n": "int"},
           "union(literal('even'), literal('odd'))", ref_parity,
           ("    return 'even' if n % 2 == 0 else 'odd'",), lambda r: {"n": r.randint(-500, 500)}),
)

# Functions the call workload compiles, after the list and string tasks of
# tasks/demo.json; their payload is a list of ints or a string.
CALL_FAMILIES = (
    Family("sumInts", "Return the sum of the integers in {{ns}}.", {"ns": "list(int)"}, "int",
           ref_sum_ints, ("    return sum(ns)",), lambda r: {"ns": _ints(r)}),
    Family("sortInts", "Sort the integers {{ns}} in ascending order.", {"ns": "list(int)"},
           "list(int)", ref_sort, ("    return sorted(ns)",), lambda r: {"ns": _ints(r)}),
    Family("reverseText", "Reverse the text {{s}}.", {"s": "str"}, "str", ref_reverse,
           ("    return s[::-1]",), lambda r: {"s": _text(r, r.randint(1, 4))}),
    Family("countVowels", "Count the vowels in {{s}}.", {"s": "str"}, "int", ref_count_vowels,
           ("    return sum(1 for char in s if char in 'aeiou')",),
           lambda r: {"s": _text(r, r.randint(1, 4))}),
)

# Payload sizes of the warm calls whose latency is gated: the sizes of the
# list and string test inputs in tasks/demo.json ([1, 2, 3], [], [3, 1, 2],
# [5, -1, 4, 4], "hello", "askit"). Every function gets each size once per
# block, so the gated percentiles cover one payload class.
SMALL_SIZES = (3, 0, 3, 4, 5, 5)
# Larger payloads, one class per decade up to 10^4 elements. They run in a
# phase of their own and each class is reported on its own, so no mix of
# sizes decides a percentile.
BULK_SIZES = (10, 100, 1000, 10000)

# One round of the compile workload: per task, its test example count and
# the rejects vetted before the accepted candidate. The seed deals these
# profiles to the families and orders the rejects, so the costs of a round's
# misses are the same for every seed; the middle profiles cost about the
# same, which keeps the median miss away from a gap between two of them.
# Test counts start at 3, as the benchmark asks of every task; the demo tasks
# of the repository have 2.
PROFILES = (
    (3, ()),
    (5, ()),
    (3, ("syntax_error",)),
    (4, ("failing_test",)),
    (3, ("no_fence", "raises")),
    (4, ("sandbox", "syntax_error")),
    (3, ("failing_test", "raises")),
    (5, ("sandbox", "no_fence")),
    (3, ("syntax_error", "failing_test", "sandbox")),
    (4, ("raises", "no_fence", "syntax_error")),
    (3, ("failing_test", "raises", "sandbox", "syntax_error")),
    (4, ("no_fence", "failing_test", "raises", "sandbox")),
)
# Cache hits after each miss, all of the task that just missed. Nothing in
# the repository fixes how often a compiled task is reused, so the ratio is
# chosen for the measurement: a hit takes about 0.07 ms and a miss 0.3-0.5 s
# on a 2-vCPU virtual machine, so 1500 hits per miss give hits about a fifth
# of the run, spread over the whole run in 12 blocks a round. With a few hits
# per miss, all of a run's hits took under 1 % of it and their median
# sampled the shared host's drifting speed at a few instants only. Hit and
# miss latencies are separate percentiles; the ratio moves `compiles_per_s`,
# which counts both.
HITS_PER_TASK = 1500


@dataclass
class CodableTask:
    name: str
    family: Family
    template: str
    tests: list[dict]
    source: str  # the accepted candidate, as the cache must hold it
    script: list[str]  # candidate responses in order, the accepted one last
    rejects: int

    def entry(self) -> dict:
        return {
            "name": self.name,
            "template": self.template,
            "return_schema": self.family.returns,
            "param_schemas": dict(self.family.params),
            "tests": self.tests,
            "codable": True,
        }


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase + string.digits) for _ in range(6))


def _source(name: str, family: Family, extra: tuple[str, ...] = ()) -> str:
    signature = f"def {name}(*, {', '.join(family.params)}):"
    return "\n".join([*family.prelude, signature, *extra, *family.body]) + "\n"


def _fenced(source: str) -> str:
    return f"Here is the implementation:\n```python\n{source}```\n"


def _reject(kind: str, name: str, family: Family) -> str:
    signature = f"def {name}(*, {', '.join(family.params)}):"
    if kind == "no_fence":
        return "Loop over the input and accumulate the result as you go."
    if kind == "syntax_error":
        return _fenced(f"{signature}\n    return (\n")
    if kind == "failing_test":
        return _fenced(f"{signature}\n    return {WRONG_VALUE!r}\n")
    if kind == "raises":
        return _fenced(f"{signature}\n    raise RuntimeError('scripted failure')\n")
    if kind == "sandbox":
        # Correct apart from a write outside the scratch directory: it is
        # accepted only if the sandbox fails to deny the write.
        escape = (f"    with open('../{ESCAPE_FILE}', 'w') as handle:", "        handle.write('escaped')")
        return _fenced(_source(name, family, escape))
    raise ValueError(kind)


def make_codable(
    rng: random.Random,
    family: Family,
    tests: int,
    kinds: list[str],
    accepted_body: tuple[str, ...] | None = None,
) -> CodableTask:
    """One task of `family` whose script holds `kinds` rejects, then the answer.

    `accepted_body` replaces the reference body in the accepted candidate;
    the self-test uses it to plant code that passes the tests but is wrong.
    """
    name = f"{family.stem}_{_tag(rng)}"
    template = f"{family.template} Case {name[-6:]}."
    examples = []
    seen = set()
    while len(examples) < tests:
        args = family.make_input(rng)
        key = json.dumps(args, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        examples.append({"input": args, "output": family.reference(**args)})
    accepted_family = family if accepted_body is None else replace(family, body=accepted_body)
    source = _source(name, accepted_family)
    script = [_reject(kind, name, family) for kind in kinds] + [_fenced(source)]
    return CodableTask(name, family, template, examples, source, script, len(kinds))


def compile_corpus(seed: int, inject: bool = False) -> tuple[list[CodableTask], list[int]]:
    """The compile workload's tasks and one round of its request stream.

    One task per family. The stream lists task indexes in a seeded order of
    the tasks; each task's first request misses the cache and the
    HITS_PER_TASK requests right after it hit. With
    `inject`, task 0 gets an unannounced extra reject and task 1 an accepted
    candidate that differs from the expected source.
    """
    rng = random.Random(f"compile-{seed}")
    profiles = list(PROFILES)
    rng.shuffle(profiles)
    tasks = []
    for family, (tests, kinds) in zip(FAMILIES, profiles):
        tasks.append(make_codable(rng, family, tests, rng.sample(kinds, len(kinds))))
    if inject:
        tasks[0].script.insert(0, _reject("no_fence", tasks[0].name, tasks[0].family))
        tasks[1].script[-1] = _fenced("# planted\n" + tasks[1].source)
    order = list(range(len(tasks)))
    rng.shuffle(order)
    return tasks, [index for index in order for _ in range(1 + HITS_PER_TASK)]


@dataclass
class CallOp:
    function: int  # index into the call tasks
    args: dict
    expected: Any
    size: int


def _call_op(rng: random.Random, tasks: list[CodableTask], index: int, size: int) -> CallOp:
    family = tasks[index].family
    if "ns" in family.params:
        args = {"ns": [rng.randint(-10**6, 10**6) for _ in range(size)]}
    else:
        args = {"s": "".join(rng.choice("abcdefghijklmnopqrstuvwxyz ") for _ in range(size))}
    return CallOp(index, args, family.reference(**args), size)


def _call_blocks(rng: random.Random, tasks: list[CodableTask], sizes, blocks: int) -> list[CallOp]:
    """`blocks` shuffled blocks, each with every function at every size once."""
    ops = []
    for _ in range(blocks):
        block = [(index, size) for index in range(len(tasks)) for size in sizes]
        rng.shuffle(block)
        ops += [_call_op(rng, tasks, index, size) for index, size in block]
    return ops


def call_corpus(seed: int, inject: bool = False) -> tuple[list[CodableTask], list[CallOp], list[CallOp]]:
    """The call workload's functions, its small calls (SMALL_SIZES) and its
    bulk calls (BULK_SIZES).

    With `inject`, function 0 passes its tests but is wrong on long inputs.
    """
    rng = random.Random(f"call-{seed}")
    tasks = [make_codable(rng, family, 3, []) for family in CALL_FAMILIES]
    if inject:
        planted = ("    return sum(ns) if len(ns) < 500 else sum(ns) + 1",)
        tasks[0] = make_codable(rng, CALL_FAMILIES[0], 3, [], accepted_body=planted)
    return tasks, _call_blocks(rng, tasks, SMALL_SIZES, 8), _call_blocks(rng, tasks, BULK_SIZES, 2)


# --- direct-path tasks -----------------------------------------------------


@dataclass(frozen=True)
class DirectFamily:
    stem: str
    template: str
    params: dict[str, str]
    returns: str
    reference: Callable[..., Any]
    make_input: Callable[[random.Random, int], dict]  # (rng, slot in block)


def _review(rng, slot):
    words = [rng.choice(NEUTRAL) for _ in range(5)]
    words[rng.randrange(5)] = rng.choice(rng.choice((POSITIVE, NEGATIVE, NEUTRAL)))
    return {"review": " ".join(words)}


def _person(rng, slot):
    name = rng.choice(WORDS).title() + " " + rng.choice(WORDS).title()
    return {"line": f"{name} is {rng.randint(18, 90)} years old"}


def _books(rng, slot):
    return {"n": 2 + 2 * (slot % 2), "subject": rng.choice(WORDS) + " " + rng.choice(WORDS)}


def _orders(rng, slot):
    customers = rng.sample(WORDS, 3)
    return {"orders": [f"{rng.choice(customers)}:sku{rng.randint(100, 999)}:{rng.randint(1, 9)}" for _ in range(6)]}


DIRECT_FAMILIES = (
    DirectFamily("sentimentOf", "What is the sentiment of {{review}}?", {"review": "str"},
                 "union(literal('positive'), literal('negative'), literal('neutral'))",
                 ref_sentiment, _review),
    DirectFamily("parsePerson", "Extract the name and age from {{line}}.", {"line": "str"},
                 "dict({'name': str, 'age': int})", ref_person, _person),
    DirectFamily("listBooks", "List {{n}} books about {{subject}}.", {"n": "int", "subject": "str"},
                 "list(dict({'title': str, 'year': int}))", ref_books, _books),
    DirectFamily("groupOrders", "Group the orders {{orders}} by customer.", {"orders": "list(str)"},
                 "list(dict({'customer': str, 'items': list(dict({'sku': str, 'qty': int}))}))",
                 ref_group_orders, _orders),
)

DIRECT_BLOCK = 8  # asks per block, 2 per family, with 0, 0, 1, 1, 2, 2, 3, 3 rejects
DIRECT_KINDS = ("no_json", "missing_answer", "type_mismatch")


@dataclass
class DirectAsk:
    task: int  # index into the direct families
    args: dict
    expected: Any
    script: list[str]  # invalid replies, then the valid one
    rejects: int


def _as_floats(value):
    """Integral numbers written as JSON floats, which askit must coerce back."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return float(value)
    if isinstance(value, list):
        return [_as_floats(item) for item in value]
    if isinstance(value, dict):
        return {key: _as_floats(item) for key, item in value.items()}
    return value


def _direct_reply(kind: str, answer: Any = None) -> str:
    if kind == "no_json":
        return "I am not able to format that as JSON right now."
    if kind == "missing_answer":
        return '```json\n{"reason": "I looked at the input."}\n```'
    if kind == "type_mismatch":
        return '```json\n{"reason": "Counted it.", "answer": 12345}\n```'
    envelope = {"reason": "Worked through the input step by step.", "answer": _as_floats(answer)}
    return "```json\n" + json.dumps(envelope) + "\n```"


def direct_corpus(
    seed: int, inject: bool = False, blocks: int = 4
) -> tuple[list[DirectFamily], list[str], list[DirectAsk]]:
    """Direct tasks (with a seeded name tag) and the asks of one cycle.

    With `inject`, ask 0 is answered with another ask's value and ask 1 gets
    an unannounced extra invalid reply.
    """
    rng = random.Random(f"direct-{seed}")
    names = [f"{family.stem}_{_tag(rng)}" for family in DIRECT_FAMILIES]
    offset = rng.randrange(4)
    asks = []
    seen = set()
    for block in range(blocks):
        slots = [(index, slot) for index in range(len(DIRECT_FAMILIES)) for slot in range(2)]
        rng.shuffle(slots)
        for index, slot in slots:
            # A Latin square: every block holds each reject count twice, and
            # over 4 blocks every family sees each count twice.
            count = (block + index + 2 * slot + offset) % 4
            family = DIRECT_FAMILIES[index]
            args = family.make_input(rng, slot)
            while json.dumps([index, args]) in seen:  # one script per request
                args = family.make_input(rng, slot)
            seen.add(json.dumps([index, args]))
            expected = family.reference(**args)
            kinds = [DIRECT_KINDS[(index + block + j) % 3] for j in range(count)]
            script = [_direct_reply(kind) for kind in kinds] + [_direct_reply("valid", expected)]
            asks.append(DirectAsk(index, args, expected, script, count))
    if inject:
        other = next(a for a in asks[1:] if a.task == asks[0].task and a.expected != asks[0].expected)
        asks[0].script[-1] = _direct_reply("valid", other.expected)
        asks[1].script.insert(0, _direct_reply("no_json"))
    return list(DIRECT_FAMILIES), names, asks


def direct_entry(family: DirectFamily, name: str) -> dict:
    return {
        "name": name,
        "template": family.template,
        "return_schema": family.returns,
        "param_schemas": dict(family.params),
    }


def write_task_file(path: Path, entries: list[dict]) -> None:
    path.write_text(json.dumps({"version": 1, "tasks": entries}, indent=1), encoding="utf-8")


def same(expected: Any, actual: Any) -> bool:
    """Equal values of identical JSON types, floats within 1e-9 relative."""
    if type(expected) is not type(actual):
        return False
    if isinstance(expected, float):
        return abs(expected - actual) <= 1e-9 * max(1.0, abs(expected))
    if isinstance(expected, list):
        return len(expected) == len(actual) and all(map(same, expected, actual))
    if isinstance(expected, dict):
        return list(expected) == list(actual) and all(same(expected[k], actual[k]) for k in expected)
    return expected == actual
