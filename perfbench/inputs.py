"""Seeded inputs for every workload.

Everything the program sees is generated here from ``--seed`` alone:
chat session order, tenant assignment, chat_long cycle order, the scale
corpus and its drift.  The same seed always yields byte-identical
inputs.  Chat runs send a fixed multiset of turns (whole rounds, whole
sessions of a fixed length) so that seeds differ in order and targets,
not in how much work a run does.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, Iterator, List

TENANTS = ("t0", "t1", "t2", "t3")

POLICIES = {
    "max-quality": "Maximize quality",
    "min-cost": "Minimize the cost",
    "min-time": "Minimize the runtime",
}

#: Input documents of each demo dataset (checked against the load reply).
DEMO_DOCS = {"sigmod-demo": 11, "legal-demo": 20, "realestate-demo": 24}

#: The paper's three demo conversations.  ``execute`` turns take the
#: policy phrase; ``optional`` turns are included per session by seed.
SCRIPTS = {
    "sci": {
        "dataset": "sigmod-demo",
        "turns": [
            ("load", "Load the papers from the sigmod-demo dataset"),
            ("build", "I am interested in papers that are about colorectal "
                      "cancer, and I would like to extract the dataset "
                      "name, description and url for any public dataset "
                      "used by the study"),
            ("execute", "{policy} and run the pipeline"),
            ("show", "Show the extracted records"),
            ("rerun", "run the pipeline again"),
        ],
        "optional": ("stats", "How much did the LLM invocations cost?"),
    },
    "legal": {
        "dataset": "legal-demo",
        "turns": [
            ("load", "Load the legal-demo dataset"),
            ("build", "Keep only documents about the Project Harbor merger "
                      "and extract the buyer, seller, deal value and "
                      "effective date"),
            ("execute", "{policy} and run the pipeline"),
        ],
        "optional": ("show", "show the results"),
    },
    "realestate": {
        "dataset": "realestate-demo",
        "turns": [
            ("load", "Load the realestate-demo dataset"),
            ("build", "Keep only the listings about waterfront properties "
                      "and extract the address, city and price"),
            ("execute", "{policy} and run the pipeline and show the "
                        "results"),
        ],
        "optional": ("stats", "How much did it cost?"),
    },
}

#: chat_long filters, one per demo dataset.
LONG_FILTERS = {
    "sigmod-demo": "Keep only papers about colorectal cancer",
    "legal-demo": "Keep only documents about the Project Harbor merger",
    "realestate-demo": "Keep only the listings about waterfront properties",
}

#: chat_long sessions are whole cycles of these turns.
LONG_CYCLE = (
    ("load", "Load the {dataset} dataset"),
    ("filter", "{filter}"),
    ("execute", "{policy_a} and run the pipeline"),
    ("show", "show the records"),
    ("policy", "{policy_b}"),
    ("rerun", "run the pipeline again"),
    ("compare", "what changed since the last run"),
    ("why", "why is record {k} in the output"),
)
#: chat_long cycle contents: each dataset with each policy change (the
#: three policies in a ring), so every policy is run and re-run.
_RING = sorted(POLICIES)
LONG_COMBOS = [(dataset, _RING[i], _RING[(i + 1) % len(_RING)])
               for dataset in sorted(LONG_FILTERS)
               for i in range(len(_RING))]
#: A session is every combo once plus the first few again (13 cycles,
#: 104 turns) in seeded order: the same multiset of turns in every run.
LONG_SESSION = LONG_COMBOS + LONG_COMBOS[:4]
#: Sessions a chat_long client opens before iterating in the last one.
LONG_OPENS = 8
LONG_DETAIL_EVERY = 4

#: The scale corpus: documents per run, and the number of pinned input
#: variants (the seed picks one; each has its own pinned outputs).
CORPUS_DOCS = 500
CORPUS_VARIANTS = 16


def pin_key(dataset: str, pipeline: str, policy: str) -> str:
    return f"{dataset}|{pipeline}|{policy}"


def _turn(kind: str, message: str, dataset: str,
          pin: str = None) -> Dict[str, Any]:
    return {"kind": kind, "message": message, "dataset": dataset,
            "pin": pin}


#: chat_short sessions come in rounds: each script under each policy,
#: with and without its optional turn, once per round, in seeded order.
#: Whole rounds make every run send the same multiset of turns.
SHORT_COMBOS = [(name, policy, optional) for name in sorted(SCRIPTS)
                for policy in sorted(POLICIES) for optional in (False, True)]


def _rounds(rng: random.Random, items: List[Any]) -> Iterator[Any]:
    """Endless seeded shuffles of ``items``: every item once per round,
    so whole rounds hold the same mix whatever the seed."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def chat_short_sessions(seed: int, client: int) -> Iterator[Dict[str, Any]]:
    """Endless seeded stream of short demo sessions for one client."""
    rng = random.Random(f"chat_short:{seed}:{client}")
    for name, policy, optional in _rounds(rng, SHORT_COMBOS):
        script = SCRIPTS[name]
        key = pin_key(script["dataset"], "extract", policy)
        turns = []
        for kind, text in script["turns"]:
            pin = key if kind in ("execute", "rerun") else None
            turns.append(_turn(kind, text.format(policy=POLICIES[policy]),
                               script["dataset"], pin))
        if optional:
            kind, text = script["optional"]
            turns.append(_turn(kind, text, script["dataset"]))
        yield {
            "tenant": rng.choice(TENANTS),
            "script": name,
            "dataset": script["dataset"],
            "turns": turns,
            "opens": 1,
            "detail_every": 0,
        }


def chat_long_sessions(seed: int, client: int) -> Iterator[Dict[str, Any]]:
    """Endless seeded stream of long iterative sessions for one client."""
    rng = random.Random(f"chat_long:{seed}:{client}")
    # Concurrent long sessions belong to different tenants: one seeded
    # offset shared by all clients, shifted by the client number.
    start = random.Random(f"chat_long:{seed}").randrange(len(TENANTS))
    tenant = TENANTS[(start + client) % len(TENANTS)]
    while True:
        cycles = list(LONG_SESSION)
        rng.shuffle(cycles)
        turns = []
        for dataset, policy_a, policy_b in cycles:
            values = {
                "dataset": dataset,
                "filter": LONG_FILTERS[dataset],
                "policy_a": POLICIES[policy_a],
                "policy_b": POLICIES[policy_b],
                "k": rng.randint(1, 3),
            }
            for kind, text in LONG_CYCLE:
                pin = None
                if kind == "execute":
                    pin = pin_key(dataset, "filter", policy_a)
                elif kind == "rerun":
                    pin = pin_key(dataset, "filter", policy_b)
                turns.append(_turn(kind, text.format(**values), dataset,
                                   pin))
        yield {
            "tenant": tenant,
            "script": "long",
            "dataset": None,
            "turns": turns,
            "opens": LONG_OPENS,
            "detail_every": LONG_DETAIL_EVERY,
        }


def corpus_inputs(seed: int) -> Dict[str, Any]:
    """Scale-corpus variant and ~1% drift (adds + edits + drops)."""
    variant = seed % CORPUS_VARIANTS
    rng = random.Random(f"corpus:{variant}")
    total = max(3, CORPUS_DOCS // 100)
    adds = rng.randint(1, total - 2)
    edits = rng.randint(1, total - adds - 1)
    return {
        "variant": variant,
        "n_docs": CORPUS_DOCS,
        "corpus_seed": 11 + variant,
        "adds": adds,
        "edits": edits,
        "drops": total - adds - edits,
    }


def corpus_pin_key(inputs: Dict[str, Any], executor: str) -> str:
    return f"{executor}|{inputs['n_docs']}|v{inputs['variant']}"


def fingerprint(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
