#!/usr/bin/env python3
"""Generate a seeded FrameNet-1.7-size corpus and its ground-truth manifest.

The corpus follows the on-disk FrameNet 1.7 layout that framelex reads:
index files, one file per frame, one exemplar file per annotated lexical
unit, full-text documents, the frame relation registry and the semantic
type registry.  It scales the shapes of the test fixture (its ten frames,
their frame elements, lexical units and relations are kept under their own
names and IDs, so ``Revenge``/347 exists) with fresh IDs and names up to
about 1.2k frames, 13.5k lexical units, 2k exemplar files and 100
documents.

Everything is drawn from ``random.Random`` streams keyed by the seed, so one
seed always yields byte-identical files.  The distributions that set the
amount of work (lexical units per frame, exemplar sentences per file,
sentences per document, sentence lengths) come from a fixed stream and only
their assignment to entities follows the seed, so corpora of different seeds
carry the same totals and the same heavy tails.

While writing, the generator records what it wrote in ``manifest.json``:
frame, FE and LU names and IDs, every sentence with its text, target spans
and FE spans, every document's sentences and annotation sets, the relation
registry in file order, and totals.  The benchmark checks the program's
results against this manifest, never against the program's earlier output.

Usage:  python3 bench/gencorpus.py --seed N --out DIR
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import sys
from pathlib import Path
from xml.sax.saxutils import escape

XMLNS = "http://framenet.icsi.berkeley.edu"
CDATE = "02/07/2001 04:12:10 PST Wed"
CBY = "664"

# Totals for the full corpus and the tiny one the self-test uses.
SCALES = {
    "full": dict(frames=1221, lus=13572, lu_files=2000, exemplars=6400,
                 docs=100, doc_sents=2000, relations=1900, max_exemplars=240),
    "tiny": dict(frames=40, lus=400, lu_files=60, exemplars=400,
                 docs=6, doc_sents=90, relations=60, max_exemplars=40),
}

# ------------------------------------------------------------ fixture shapes
# The ten frames of the test fixture, kept with their names and IDs:
# name: (ID, frame semtypes, [(FE, ID, coreType, semtype, abbrev)],
#        [(LU, ID, status, exemplar count)], [core sets]).
FIXTURE_FRAMES = {
    "Event": (5, ["Abstract_entity"], [
        ("Event", 401, "Core", None, "Evnt"), ("Place", 402, "Peripheral", "Locale", "Place"),
        ("Time", 403, "Peripheral", None, "Time"),
    ], [("happen.v", 1001, "Finished_Initial", 0), ("occur.v", 1002, "Finished_Initial", 0),
        ("event.n", 1003, "Created", 0)], []),
    "Cooking_creation": (268, [], [
        ("Cook", 2901, "Core", "Sentient", "Cook"), ("Produced_food", 2902, "Core", None, "Food"),
        ("Heating_instrument", 2903, "Peripheral", None, "Heat"),
    ], [("bake.v", 4001, "Finished_Initial", 0), ("cook.v", 4002, "Finished_Initial", 0),
        ("concoct.v", 4003, "Created", 0)], []),
    "Rewards_and_punishments": (344, [], [
        ("Agent", 2501, "Core", "Sentient", "Agt"), ("Evaluee", 2502, "Core", None, "Evl"),
        ("Response_action", 2503, "Core", None, "Resp"), ("Reason", 2504, "Core", None, "Reas"),
        ("Time", 2505, "Peripheral", "Time", "Time"), ("Place", 2506, "Peripheral", None, "Place"),
        ("Manner", 2507, "Peripheral", None, "Manr"),
        ("Degree", 2508, "Peripheral", "Degree_type", "Degr"),
    ], [("punish.v", 6100, "Finished_Initial", 0), ("reward.v", 6101, "Finished_Initial", 0),
        ("punishment.n", 6102, "Finished_Initial", 0), ("reward.n", 6103, "Created", 0)],
        [["Evaluee", "Reason"]]),
    "Revenge": (347, [], [
        ("Avenger", 3009, "Core", None, "Ave"), ("Degree", 3010, "Peripheral", "Non_sentient", "Degr"),
        ("Depictive", 3011, "Extra-Thematic", None, "Depict"), ("Offender", 3012, "Core", None, "Off"),
        ("Instrument", 3013, "Peripheral", None, "Ins"), ("Manner", 3014, "Peripheral", None, "Manr"),
        ("Punishment", 3015, "Core", None, "Pun"), ("Place", 3016, "Peripheral", None, "Place"),
        ("Purpose", 3017, "Peripheral", None, "Purp"), ("Injury", 3018, "Core", None, "Inj"),
        ("Result", 3020, "Extra-Thematic", None, "Res"), ("Time", 3021, "Peripheral", None, "Time"),
        ("Injured_party", 3022, "Core", None, "InjP"), ("Duration", 12060, "Peripheral", None, "Dur"),
    ], [("avenge.v", 6056, "Finished_Initial", 0), ("avenger.n", 6057, "Finished_Initial", 0),
        ("vengeance.n", 6058, "Finished_Initial", 0), ("retaliate.v", 6065, "Finished_Initial", 0),
        ("revenge.v", 6066, "Finished_Initial", 0), ("revenge.n", 6067, "FN1_Sent", 21),
        ("vengeful.a", 6068, "Finished_Initial", 0), ("vindictive.a", 6069, "Finished_Initial", 0),
        ("retribution.n", 6070, "Finished_Initial", 0), ("retaliation.n", 6071, "Finished_Initial", 0),
        ("revenger.n", 6072, "Created", 0), ("revengeful.a", 6073, "Created", 0),
        ("retributive.a", 6074, "Created", 0), ("get even.v", 6075, "Finished_Initial", 0),
        ("retributory.a", 6076, "Created", 0), ("get back (at).v", 10003, "Created", 0),
        ("payback.n", 10124, "Created", 0), ("sanction.n", 10676, "Created", 0)],
        [["Injury", "Injured_party"], ["Avenger", "Punishment"]]),
    "Waking_up": (1017, [], [
        ("Sleeper", 3201, "Core", "Sentient", "Slpr"), ("Time", 3202, "Peripheral", None, "Time"),
    ], [("awaken.v", 5331, "FN1_Sent", 1), ("wake.v", 5332, "Finished_Initial", 0)], []),
    "Omen": (1180, [], [
        ("Predictive_phenomenon", 3301, "Core", None, "Phen"), ("Outcome", 3302, "Core", None, "Out"),
    ], [("betoken.v", 7544, "FN1_Sent", 1), ("presage.v", 7545, "Finished_Initial", 0)], []),
    "Create_physical_artwork": (1658, [], [
        ("Creator", 3101, "Core", "Sentient", "Crea"), ("Representation", 3102, "Core", None, "Rep"),
    ], [("paint.v", 12001, "Finished_Initial", 0), ("sculpt.v", 12002, "Created", 0)], []),
    "Seeking": (2001, [], [
        ("Seeker", 2701, "Core", "Sentient", "Skr"), ("Sought_entity", 2702, "Core", None, "Sght"),
        ("Time", 2703, "Peripheral", None, "Time"), ("Place", 2704, "Peripheral", None, "Place"),
    ], [("seek.v", 11001, "Finished_Initial", 0), ("search.v", 11002, "Finished_Initial", 0)], []),
    "Process_start": (2002, [], [
        ("Event", 2601, "Core", None, "Evnt"), ("Time", 2602, "Peripheral", None, "Time"),
        ("Place", 2603, "Peripheral", None, "Place"),
    ], [("begin.v", 2280, "Finished_Initial", 0), ("commence.v", 2281, "Finished_Initial", 0)], []),
    "Becoming_aware": (2003, [], [
        ("Cognizer", 2801, "Core", "Sentient", "Cog"), ("Phenomenon", 2802, "Core", None, "Phen"),
        ("Time", 2803, "Peripheral", None, "Time"), ("Place", 2804, "Peripheral", "Region", "Place"),
    ], [("find out.v", 7458, "Finished_Initial", 0), ("discover.v", 7459, "Finished_Initial", 0),
        ("notice.v", 7460, "Created", 0)], []),
}

FIXTURE_RELATIONS = [
    # (type name, sup frame, sub frame, [(sup FE, sub FE)])
    ("Inheritance", "Rewards_and_punishments", "Revenge", [
        ("Agent", "Avenger"), ("Evaluee", "Offender"), ("Response_action", "Punishment"),
        ("Reason", "Injury"), ("Time", "Time"), ("Place", "Place"), ("Manner", "Manner"),
        ("Degree", "Degree")]),
    ("Inheritance", "Event", "Rewards_and_punishments", [("Time", "Time"), ("Place", "Place")]),
    ("Inheritance", "Event", "Becoming_aware", [("Time", "Time"), ("Place", "Place")]),
    ("Subframe", "Event", "Process_start", [("Time", "Time")]),
]

# The relation types of FrameNet 1.7 with their role names and their rough
# share of the registry.
RELATION_TYPES = [
    (1, "Inheritance", "Parent", "Child", 0.38),
    (2, "Subframe", "Complex", "Component", 0.07),
    (3, "Using", "Parent", "Child", 0.25),
    (4, "Perspective_on", "Neutral", "Perspectivized", 0.05),
    (5, "Precedes", "Earlier", "Later", 0.04),
    (6, "See_also", "MainEntry", "ReferringEntry", 0.11),
    (7, "Causative_of", "Causative", "Inchoative", 0.03),
    (8, "Inchoative_of", "Inchoative", "State", 0.03),
    (9, "ReFraming_Mapping", "Source", "Target", 0.03),
    (10, "Metaphor", "Source", "Target", 0.01),
]

FIXTURE_SEMTYPES = [
    # (name, ID, abbrev, parent)
    ("Sentient", 5, "sent", "Animate_being"), ("Animate_being", 4, "anim", "Living_thing"),
    ("Locale", 9, "loc", "Physical_entity"), ("Non_sentient", 54, "nonsent", "Animate_being"),
    ("Living_thing", 66, "liv", "Physical_entity"), ("Physical_entity", 70, "phys", None),
    ("Time", 141, "tim", "Abstract_entity"), ("Degree_type", 172, "deg", "Abstract_entity"),
    ("Abstract_entity", 200, "abs", None), ("Region", 210, "reg", "Locale"),
]

# Non-core frame elements that generated frames draw on, as FrameNet frames do.
PERIPHERAL_FES = [
    # (name, coreType, semantic type)
    ("Time", "Peripheral", "Time"), ("Place", "Peripheral", "Locale"), ("Manner", "Peripheral", None),
    ("Degree", "Peripheral", None), ("Means", "Peripheral", None), ("Purpose", "Peripheral", None),
    ("Duration", "Peripheral", None), ("Frequency", "Peripheral", None),
    ("Explanation", "Extra-Thematic", None), ("Circumstances", "Extra-Thematic", None),
    ("Depictive", "Extra-Thematic", None), ("Result", "Extra-Thematic", None),
    ("Instrument", "Peripheral", None), ("Concessive", "Extra-Thematic", None),
]

# ------------------------------------------------------------ vocabulary

ONSETS = ["b", "br", "c", "ch", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k", "l",
          "m", "n", "p", "pl", "pr", "qu", "r", "s", "sh", "sk", "sl", "st", "t", "th", "tr",
          "v", "w", "wr", "z"]
NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "ee", "oo", "ou", "ie"]
CODAS = ["", "", "n", "r", "l", "s", "t", "nd", "rk", "st", "m", "ng", "ck", "sh"]
NAME_WORDS = [
    "Abandonment", "Activity", "Adjusting", "Aging", "Arrest", "Arriving", "Assistance",
    "Attack", "Awareness", "Becoming", "Behind", "Birth", "Body", "Building", "Bungling",
    "Categorization", "Cause", "Change", "Chemical", "Choosing", "Clothing", "Cogitation",
    "Color", "Commerce", "Communication", "Competition", "Conquering", "Contacting",
    "Cooking", "Cotheme", "Crime", "Damaging", "Death", "Deciding", "Departing", "Desiring",
    "Destroying", "Difficulty", "Discussion", "Dying", "Education", "Emotion", "Employing",
    "Entity", "Escaping", "Evidence", "Experience", "Expertise", "Filling", "Finish",
    "Food", "Forming", "Friction", "Gathering", "Giving", "Grooming", "Growth", "Hiding",
    "Hostile", "Ingestion", "Inspecting", "Intentionally", "Judgment", "Killing", "Labeling",
    "Leadership", "Light", "Locating", "Make", "Manipulation", "Measure", "Memory",
    "Motion", "Noise", "Obligation", "Operating", "Origin", "Part", "Perception",
    "Placing", "Possession", "Posture", "Precipitation", "Process", "Quantity", "Reading",
    "Receiving", "Removing", "Request", "Residence", "Resolve", "Rest", "Risk", "Self",
    "Sending", "Similarity", "Social", "Speed", "Statement", "Storing", "Success",
    "Surviving", "Taking", "Temperature", "Text", "Theft", "Travel", "Trust", "Using",
    "Verdict", "Waiting", "Weapon", "Work",
]
NAME_PARTS = [
    "act", "agent", "change", "creation", "end", "entity", "event", "experience", "for",
    "in", "into", "location", "manner", "noise", "of", "on", "out", "path", "place",
    "position", "process", "relation", "scenario", "start", "state", "stop", "success",
    "time", "to", "up", "value", "with",
]

FILLER = [
    ("the", "AT0", "DT"), ("a", "AT0", "DT"), ("of", "PRF", "IN"), ("in", "PRP", "IN"),
    ("and", "CJC", "CC"), ("to", "TO0", "TO"), ("with", "PRP", "IN"), ("that", "CJT", "IN"),
    ("for", "PRP", "IN"), ("was", "VBD", "VBD"), ("had", "VHD", "VBD"), ("very", "AV0", "RB"),
    ("old", "AJ0", "JJ"), ("long", "AJ0", "JJ"), ("small", "AJ0", "JJ"), ("river", "NN1", "NN"),
    ("town", "NN1", "NN"), ("winter", "NN1", "NN"), ("garden", "NN1", "NN"),
    ("letter", "NN1", "NN"), ("morning", "NN1", "NN"), ("quietly", "AV0", "RB"),
    ("soon", "AV0", "RB"), ("after", "PRP", "IN"), ("before", "PRP", "IN"),
    ("northern", "AJ0", "JJ"), ("bitter", "AJ0", "JJ"), ("family", "NN1", "NN"),
    ("house", "NN1", "NN"), ("road", "NN1", "NN"), ("finally", "AV0", "RB"),
    (",", "PUN", ","),
]
HEADS = [
    ("farmer", "NN1", "NN"), ("soldiers", "NN2", "NNS"), ("council", "NN1", "NN"),
    ("Joseph", "NP0", "NNP"), ("Watson", "NP0", "NNP"), ("Morag", "NP0", "NNP"),
    ("she", "PNP", "PRP"), ("they", "PNP", "PRP"), ("children", "NN2", "NNS"),
    ("garrison", "NN1", "NN"), ("stranger", "NN1", "NN"), ("money", "NN1", "NN"),
    ("harvest", "NN1", "NN"), ("village", "NN1", "NN"), ("ship", "NN1", "NN"),
    ("plan", "NN1", "NN"), ("matter", "NN1", "NN"), ("Anna", "NP0", "NNP"),
]
PREPS = [("on", "PRP", "IN"), ("at", "PRP", "IN"), ("from", "PRP", "IN"),
         ("against", "PRP", "IN"), ("into", "PRP", "IN"), ("over", "PRP", "IN")]
SUPPORT = {"N": [("took", "VVD"), ("had", "VHD"), ("made", "VVD")],
           "A": [("was", "VBD"), ("seemed", "VVD")]}
POS_TAGS = {"V": ("VVD", "VBD"), "N": ("NN1", "NN"), "A": ("AJ0", "JJ"),
            "ADV": ("AV0", "RB"), "PREP": ("PRP", "IN")}
LU_POS = [("v", 40), ("n", 40), ("a", 15), ("adv", 3), ("prep", 2)]
PARTICLES = ["up", "out", "off", "back", "down", "over", "away", "in"]
STATUSES = ["Finished_Initial", "Created", "Finished_X-Gov", "New", "Insufficient_Attestations"]
SUBCORPUS_NAMES = ["other-matched", "manually-added", "V-880-ppother", "N-780-ppof",
                   "A-660-np", "02-T-NP-PPfor", "other-unmatched"]


def pseudo_word(rng, syllables):
    return "".join(
        rng.choice(ONSETS) + rng.choice(NUCLEI) + (rng.choice(CODAS) if i == syllables - 1 else "")
        for i in range(syllables)
    )


def weighted(rng, pairs):
    return rng.choices([p for p, _ in pairs], weights=[w for _, w in pairs])[0]


def heavy_counts(n, total, cap, stream, alpha=1.1):
    """``n`` positive counts summing to ``total`` with a Pareto tail, from a
    fixed stream so every seed shares the same multiset."""
    rng = random.Random(stream)
    raw = [min(rng.paretovariate(alpha), cap) for _ in range(n)]
    scale = (total - n) / sum(r - 1 for r in raw) if total > n else 0
    counts = [1 + int((r - 1) * scale) for r in raw]
    counts = [min(c, cap) for c in counts]
    i = 0
    while sum(counts) < total:           # hand out the rounding remainder
        if counts[i % n] < cap:
            counts[i % n] += 1
        i += 1
    return sorted(counts, reverse=True)


# ------------------------------------------------------------ xml writing


def attrs_str(attrs):
    return "".join(f' {k}="{escape(str(v), {chr(34): "&quot;"})}"' for k, v in attrs)


class Doc:
    """A line-oriented XML writer using the same four-space indentation as
    the fixture's files."""

    def __init__(self):
        self.lines = ["<?xml version='1.0' encoding='UTF-8'?>"]
        self.depth = 0

    def open(self, tag, attrs=()):
        self.lines.append(f"{'    ' * self.depth}<{tag}{attrs_str(attrs)}>")
        self.depth += 1

    def close(self, tag):
        self.depth -= 1
        self.lines.append(f"{'    ' * self.depth}</{tag}>")

    def leaf(self, tag, attrs=(), text=None):
        pad = "    " * self.depth
        if text is None:
            self.lines.append(f"{pad}<{tag}{attrs_str(attrs)} />")
        else:
            self.lines.append(f"{pad}<{tag}{attrs_str(attrs)}>{escape(text)}</{tag}>")

    def bytes(self):
        return ("\n".join(self.lines) + "\n").encode("utf-8")


# ------------------------------------------------------------ sentences


class Sentence:
    """Tokens with character offsets; spans are inclusive, as in the files."""

    def __init__(self):
        self.words = []      # (word, bnc, penn)
        self.starts = []

    def add(self, word, bnc, penn):
        pos = self.starts[-1] + len(self.words[-1][0]) + 1 if self.words else 0
        self.starts.append(pos)
        self.words.append((word, bnc, penn))
        return len(self.words) - 1

    def span(self, i, j=None):
        j = i if j is None else j
        return (self.starts[i], self.starts[j] + len(self.words[j][0]) - 1)

    @property
    def text(self):
        return " ".join(w for w, _, _ in self.words)


def add_fillers(rng, sent, n):
    for _ in range(n):
        sent.add(*rng.choice(FILLER))


def add_phrase(rng, sent, prep):
    """A noun phrase (optionally prepositional); returns its token range."""
    first = None
    if prep:
        first = sent.add(*rng.choice(PREPS))
    i = sent.add(*rng.choice(FILLER[:2]))
    first = i if first is None else first
    for _ in range(rng.randrange(3)):
        sent.add(*rng.choice([w for w in FILLER if w[1] == "AJ0"]))
    last = sent.add(*rng.choice(HEADS))
    return first, last


def target_tokens(rng, sent, lu_name, pos):
    """Append the LU's word(s); returns the target token indexes."""
    lemma = lu_name.rpartition(".")[0]
    bnc, penn = POS_TAGS.get(pos, ("UNC", "NN"))
    idx = []
    for k, word in enumerate(lemma.split(" ")):
        if k:
            tag = ("AVP", "RP")
        else:
            tag = (bnc, penn)
        if word.startswith("("):
            continue
        idx.append(sent.add(word, *tag))
    return idx


# ------------------------------------------------------------ generator


class Generator:
    def __init__(self, seed, scale):
        self.seed = seed
        self.size = SCALES[scale]
        self.files = {}          # relpath -> bytes

    def stream(self, name):
        return random.Random(f"framelex-bench:{self.seed}:{name}")

    def write(self, relpath, doc):
        self.files[relpath] = doc.bytes()

    # -------------------------------------------------------- lexicon

    def make_semtypes(self):
        rng = self.stream("semtypes")
        self.semtypes = [list(t) for t in FIXTURE_SEMTYPES]
        parents = [t[0] for t in FIXTURE_SEMTYPES]
        used_ids = {t[1] for t in FIXTURE_SEMTYPES}
        names = {t[0] for t in FIXTURE_SEMTYPES}
        next_id = 300
        while len(self.semtypes) < 10 + self.size["frames"] // 30:
            name = pseudo_word(rng, 2).capitalize() + "_" + rng.choice(NAME_PARTS)
            if name in names:
                continue
            names.add(name)
            next_id += rng.randrange(1, 4)
            assert next_id not in used_ids
            self.semtypes.append([name, next_id, name[:4].lower(), rng.choice(parents)])
            parents.append(name)
        self.semtype_id = {t[0]: t[1] for t in self.semtypes}

    def make_frames(self):
        rng = self.stream("frames")
        n_gen = self.size["frames"] - len(FIXTURE_FRAMES)
        fixture_ids = {v[0] for v in FIXTURE_FRAMES.values()}
        pool = [i for i in range(1, 4 * self.size["frames"] + 100) if i not in fixture_ids]
        ids = sorted(rng.sample(pool, n_gen))
        names = set(FIXTURE_FRAMES)
        frames = []
        for name, (fid, sts, fes, lus, core_sets) in FIXTURE_FRAMES.items():
            frames.append(dict(
                ID=fid, name=name, semtypes=list(sts),
                FE=[dict(name=n, ID=i, coreType=c, semtype=s, abbrev=a) for n, i, c, s, a in fes],
                LU=[dict(name=n, ID=i, status=st, count=k) for n, i, st, k in lus],
                core_sets=core_sets, fixture=True,
            ))
        templates = list(FIXTURE_FRAMES.values())
        fe_id = 13000
        st_names = [t[0] for t in self.semtypes]
        for fid in ids:
            while True:
                name = rng.choice(NAME_WORDS) + "_" + rng.choice(NAME_PARTS)
                if rng.random() < 0.5:
                    name += "_" + pseudo_word(rng, 2)
                if name not in names:
                    break
            names.add(name)
            template = rng.choice(templates)
            core = [(n, c, s, a) for n, _, c, s, a in template[2] if c == "Core"]
            extra = rng.sample(PERIPHERAL_FES, rng.randrange(2, 10))
            fes = []
            seen = set()
            for n, c, s, a in core + [(n, c, s, n[:4]) for n, c, s in extra]:
                if n in seen:
                    continue
                seen.add(n)
                fe_id += rng.randrange(1, 3)
                st = s if s in self.semtype_id else (
                    rng.choice(st_names) if rng.random() < 0.15 else None)
                fes.append(dict(name=n, ID=fe_id, coreType=c, semtype=st, abbrev=a))
            core_names = [fe["name"] for fe in fes if fe["coreType"] == "Core"]
            core_sets = [core_names[:2]] if len(core_names) > 2 and rng.random() < 0.3 else []
            frames.append(dict(
                ID=fid, name=name,
                semtypes=[rng.choice(st_names)] if rng.random() < 0.2 else [],
                FE=fes, LU=[], core_sets=core_sets, fixture=False,
            ))
        frames.sort(key=lambda f: f["ID"])
        self.frames = frames
        self.frame_by_name = {f["name"]: f for f in frames}

    def make_lus(self):
        """Lexical units per frame (heavy-tailed, fixed multiset) and names."""
        size = self.size
        rng = self.stream("lus")
        generated = [f for f in self.frames if not f["fixture"]]
        n_fixture = sum(len(f["LU"]) for f in self.frames)
        n_lexical = int(len(generated) * 0.88)      # the rest are non-lexical frames
        counts = heavy_counts(n_lexical, size["lus"] - n_fixture, 200, "lu-per-frame", alpha=1.9)
        counts += [0] * (len(generated) - n_lexical)
        rng.shuffle(counts)
        fixture_ids = {lu["ID"] for f in self.frames for lu in f["LU"]}
        n_gen = size["lus"] - n_fixture
        ids = sorted(rng.sample(range(20000, 20000 + 3 * n_gen), n_gen))
        assert not fixture_ids & set(ids)
        lemmas = []
        seen = set()
        while len(lemmas) < int(n_gen * 0.7):
            word = pseudo_word(rng, rng.choice((1, 2, 2, 3)))
            if word not in seen:
                seen.add(word)
                lemmas.append(word)
        id_iter = iter(ids)
        for frame, count in zip(generated, counts):
            names = set()
            while len(frame["LU"]) < count:
                pos = weighted(rng, LU_POS)
                # Polysemy: a fifth of the lemmas recur across frames.
                lemma = (rng.choice(lemmas[: len(lemmas) // 5]) if rng.random() < 0.3
                         else rng.choice(lemmas))
                if pos == "v" and rng.random() < 0.06:
                    lemma += " " + rng.choice(PARTICLES)
                name = f"{lemma}.{pos}"
                if name in names:
                    continue
                names.add(name)
                frame["LU"].append(dict(name=name, ID=next(id_iter),
                                        status=rng.choice(STATUSES), count=0))
        self.lus = sorted(
            ((lu["ID"], lu, f) for f in self.frames for lu in f["LU"]), key=lambda t: t[0]
        )
        # Exemplar files: a fixed heavy-tailed multiset of counts, assigned by seed.
        fixture_files = [lu for f in self.frames for lu in f["LU"] if lu["count"]]
        n_files = size["lu_files"] - len(fixture_files)
        file_counts = heavy_counts(
            n_files, size["exemplars"] - sum(lu["count"] for lu in fixture_files),
            size["max_exemplars"], "exemplars-per-lu",
        )
        candidates = [lu for _, lu, f in self.lus if not f["fixture"]]
        chosen = rng.sample(candidates, n_files)
        for lu, count in zip(chosen, file_counts):
            lu["count"] = count
            lu["status"] = rng.choice(("FN1_Sent", "Finished_Initial"))

    # -------------------------------------------------------- frame files

    def write_frames(self):
        rng = self.stream("frame-files")
        involving = {}
        for rel in self.relations:
            involving.setdefault(rel["sup"]["name"], []).append(("Is Inherited by", rel["sub"]))
            involving.setdefault(rel["sub"]["name"], []).append(("Inherits from", rel["sup"]))
        for frame in self.frames:
            name = frame["name"]
            doc = Doc()
            doc.open("frame", [("xmlns", XMLNS), ("cBy", CBY), ("cDate", CDATE),
                               ("name", name), ("ID", frame["ID"])])
            fen = " ".join(f"<fen>{fe['name']}</fen>" for fe in frame["FE"][:3])
            definition = (f"<def-root>In this frame {fen} take part in "
                          f"{pseudo_word(rng, 2)} {pseudo_word(rng, 3)}.</def-root>")
            frame["definition"] = definition
            doc.leaf("definition", text=definition)
            for st in frame["semtypes"]:
                doc.leaf("semType", [("name", st), ("ID", self.semtype_id[st])])
            for fe in frame["FE"]:
                doc.open("FE", [("bgColor", "FF0000"), ("fgColor", "FFFFFF"),
                                ("coreType", fe["coreType"]), ("cBy", CBY), ("cDate", CDATE),
                                ("abbrev", fe["abbrev"]), ("name", fe["name"]), ("ID", fe["ID"])])
                doc.leaf("definition",
                         text=f"<def-root>The <fen>{fe['name']}</fen> of the frame.</def-root>")
                if fe["semtype"] is not None:
                    doc.leaf("semType", [("name", fe["semtype"]),
                                         ("ID", self.semtype_id[fe["semtype"]])])
                doc.close("FE")
            for members in frame["core_sets"]:
                doc.open("FEcoreSet")
                ids = {fe["name"]: fe["ID"] for fe in frame["FE"]}
                for member in members:
                    doc.leaf("memberFE", [("name", member), ("ID", ids[member])])
                doc.close("FEcoreSet")
            # Editorial cross-references, as in the release; readers skip them.
            for kind, other in involving.get(name, []):
                doc.open("frameRelation", [("type", kind)])
                doc.leaf("relatedFrame", [("ID", other["ID"])], text=other["name"])
                doc.close("frameRelation")
            for lu in frame["LU"]:
                lemma, _, pos = lu["name"].rpartition(".")
                doc.open("lexUnit", [("status", lu["status"]), ("POS", pos.upper()),
                                     ("name", lu["name"]), ("ID", lu["ID"]),
                                     ("lemmaID", lu["ID"] + 90000), ("cBy", CBY), ("cDate", CDATE)])
                doc.leaf("definition", text=f"COD: {lemma} in the {name} sense")
                doc.leaf("sentenceCount", [("annotated", lu["count"]), ("total", lu["count"])])
                words = [w for w in lemma.split(" ")]
                for order, word in enumerate(words, start=1):
                    wpos = pos.upper() if order == 1 else "ADV"
                    doc.leaf("lexeme", [("order", order), ("headword", str(order == 1).lower()),
                                        ("breakBefore", str(word.startswith("(")).lower()),
                                        ("POS", wpos), ("name", word)])
                doc.close("lexUnit")
            doc.close("frame")
            self.write(f"frame/{name}.xml", doc)

    # -------------------------------------------------------- relations

    def make_relations(self):
        rng = self.stream("relations")
        by_name = self.frame_by_name
        rels = []
        pairs = set()
        for type_name, sup, sub, fe_pairs in FIXTURE_RELATIONS:
            rels.append(dict(type=type_name, sup=by_name[sup], sub=by_name[sub], fe=fe_pairs))
            pairs.add((type_name, by_name[sup]["ID"], by_name[sub]["ID"]))
        pool = [f for f in self.frames if not f["fixture"]]
        want = self.size["relations"] - len(rels)
        for tid, type_name, _, _, share in RELATION_TYPES:
            n = round(want * share)
            made = 0
            while made < n:
                sup, sub = rng.sample(pool, 2)
                key = (type_name, sup["ID"], sub["ID"])
                if key in pairs:
                    continue
                pairs.add(key)
                sub_fes = {fe["name"] for fe in sub["FE"]}
                fe_pairs = [(fe["name"], fe["name"]) for fe in sup["FE"] if fe["name"] in sub_fes]
                rels.append(dict(type=type_name, sup=sup, sub=sub, fe=fe_pairs))
                made += 1
        order = {t[1]: i for i, t in enumerate(RELATION_TYPES)}
        # Registry order: by type, then in generation order, like the release.
        rels.sort(key=lambda r: order[r["type"]])
        rel_id, ferel_id = 800, 9000
        for rel in rels:
            rel_id += rng.randrange(1, 4)
            rel["ID"] = rel_id
            rel["feIDs"] = []
            for _ in rel["fe"]:
                ferel_id += rng.randrange(1, 3)
                rel["feIDs"].append(ferel_id)
        self.relations = rels

    def write_relations(self):
        doc = Doc()
        doc.open("frameRelations", [("xmlns", XMLNS), ("XMLCreated", CDATE)])
        for tid, type_name, sup_role, sub_role, _ in RELATION_TYPES:
            doc.open("frameRelationType", [("ID", tid), ("name", type_name),
                                           ("superFrameName", sup_role), ("subFrameName", sub_role)])
            for rel in self.relations:
                if rel["type"] != type_name:
                    continue
                sup, sub = rel["sup"], rel["sub"]
                doc.open("frameRelation", [("ID", rel["ID"]), ("superFrameName", sup["name"]),
                                           ("subFrameName", sub["name"]), ("supID", sup["ID"]),
                                           ("subID", sub["ID"])])
                sup_ids = {fe["name"]: fe["ID"] for fe in sup["FE"]}
                sub_ids = {fe["name"]: fe["ID"] for fe in sub["FE"]}
                for (sup_fe, sub_fe), fid in zip(rel["fe"], rel["feIDs"]):
                    doc.leaf("FERelation", [("ID", fid), ("superFEName", sup_fe),
                                            ("subFEName", sub_fe), ("supID", sup_ids[sup_fe]),
                                            ("subID", sub_ids[sub_fe])])
                doc.close("frameRelation")
            doc.close("frameRelationType")
        doc.close("frameRelations")
        self.write("frRelation.xml", doc)

    def write_semtypes(self):
        doc = Doc()
        doc.open("semTypes", [("xmlns", XMLNS), ("XMLCreated", CDATE)])
        for name, st_id, abbrev, parent in self.semtypes:
            doc.open("semType", [("abbrev", abbrev), ("name", name), ("ID", st_id)])
            doc.leaf("definition", text=f"Entities of the {name} type.")
            if parent is not None:
                doc.leaf("superType", [("superTypeName", parent), ("supID", self.semtype_id[parent])])
            doc.close("semType")
        doc.close("semTypes")
        self.write("semTypes.xml", doc)

    def write_indexes(self):
        doc = Doc()
        doc.open("frameIndex", [("xmlns", XMLNS), ("XMLCreated", CDATE)])
        for f in self.frames:
            doc.leaf("frame", [("ID", f["ID"]), ("name", f["name"]), ("mDate", CDATE)])
        doc.close("frameIndex")
        self.write("frameIndex.xml", doc)
        doc = Doc()
        doc.open("luIndex", [("xmlns", XMLNS), ("XMLCreated", CDATE)])
        for lu_id, lu, f in self.lus:
            doc.leaf("lu", [("ID", lu_id), ("name", lu["name"]), ("frameID", f["ID"]),
                            ("frameName", f["name"]), ("status", lu["status"]),
                            ("hasAnnotation", str(bool(lu["count"])).lower())])
        doc.close("luIndex")
        self.write("luIndex.xml", doc)
        doc = Doc()
        doc.open("fulltextIndex", [("xmlns", XMLNS), ("XMLCreated", CDATE)])
        for corpus in self.corpora:
            doc.open("corpus", [("description", corpus["description"]), ("name", corpus["name"]),
                                ("ID", corpus["ID"])])
            for d in corpus["docs"]:
                doc.leaf("document", [("ID", d["ID"]), ("name", d["name"]),
                                      ("description", d["description"])])
            doc.close("corpus")
        doc.close("fulltextIndex")
        self.write("fulltextIndex.xml", doc)

    # -------------------------------------------------------- exemplars

    def sentence_length(self, rng):
        # Token budget: about 45 % of sentences end up past the 70-column wrap.
        return rng.choice((4, 6, 8, 10, 12, 14, 18, 22, 28, 34))

    def exemplar(self, rng, lu, frame):
        """One lexicographic sentence: text, target, FE, GF, PT and support layers."""
        pos = lu["name"].rpartition(".")[2].upper()
        sent = Sentence()
        budget = self.sentence_length(rng)
        core = [fe for fe in frame["FE"] if fe["coreType"] == "Core"] or frame["FE"]
        other = [fe for fe in frame["FE"] if fe["coreType"] != "Core"]
        fes = []          # (rank, name, feID, first, last)
        add_fillers(rng, sent, rng.randrange(0, 3) if budget > 10 else 0)
        ext = core[0]
        span = add_phrase(rng, sent, prep=False)
        fes.append((1, ext["name"], ext["ID"], *span))
        support = None
        if pos in SUPPORT and rng.random() < 0.35:
            word, tag = rng.choice(SUPPORT[pos])
            support = sent.add(word, tag, "VBD")
        targets = target_tokens(rng, sent, lu["name"], pos)
        ni = []
        if len(core) > 1:
            if rng.random() < 0.8:
                span = add_phrase(rng, sent, prep=True)
                fes.append((1, core[1]["name"], core[1]["ID"], *span))
            else:
                ni.append((core[1]["name"], core[1]["ID"], rng.choice(("INI", "DNI", "CNI"))))
        while len(sent.words) < budget:
            add_fillers(rng, sent, rng.randrange(1, 4))
            if other and rng.random() < 0.5 and len(sent.words) + 3 < budget:
                fe = rng.choice(other)
                if all(fe["name"] != f[1] for f in fes):
                    span = add_phrase(rng, sent, prep=True)
                    fes.append((1, fe["name"], fe["ID"], *span))
        sent.add(".", "PUN", ".")
        if len(core) > 2 and rng.random() < 0.15:
            # A second-rank FE on the external argument, as for Injured_party.
            fes.append((2, core[2]["name"], core[2]["ID"], fes[0][3], fes[0][4]))
        return sent, targets, fes, ni, support

    def write_lu_files(self):
        rng = self.stream("exemplars")
        self.exemplars = {}
        sent_id = 1_000_000
        for lu_id, lu, frame in self.lus:
            if not lu["count"]:
                continue
            pos = lu["name"].rpartition(".")[2].upper()
            doc = Doc()
            doc.open("lexUnit", [("xmlns", XMLNS), ("status", lu["status"]), ("POS", pos),
                                 ("name", lu["name"]), ("ID", lu_id), ("frame", frame["name"]),
                                 ("frameID", frame["ID"]), ("totalAnnotated", lu["count"])])
            lemma = lu["name"].rpartition(".")[0]
            doc.leaf("definition", text=f"COD: {lemma} in the {frame['name']} sense")
            n = lu["count"]
            n_sub = 1 if n < 4 else rng.choice((1, 2, 3))
            cuts = sorted(rng.sample(range(1, n), n_sub - 1)) if n_sub > 1 else []
            bounds = [0] + cuts + [n]
            sub_names = rng.sample(SUBCORPUS_NAMES, n_sub)
            lu["subcorpora"] = sub_names
            entries = []
            for k in range(n_sub):
                doc.open("subCorpus", [("name", sub_names[k])])
                for _ in range(bounds[k], bounds[k + 1]):
                    sent_id += rng.randrange(1, 40)
                    entries.append(self.write_exemplar(doc, rng, sent_id, lu, frame))
                doc.close("subCorpus")
            doc.close("lexUnit")
            self.write(f"lu/lu{lu_id}.xml", doc)
            self.exemplars[lu_id] = entries

    def write_exemplar(self, doc, rng, sent_id, lu, frame):
        sent, targets, fes, ni, support = self.exemplar(rng, lu, frame)
        text = sent.text
        doc.open("sentence", [("sentNo", rng.randrange(0, 5)), ("aPos", rng.randrange(10**5, 10**7)),
                              ("ID", sent_id)])
        doc.leaf("text", text=text)
        doc.open("annotationSet", [("cDate", CDATE), ("status", "UNANN"), ("ID", sent_id * 10 + 1)])
        doc.open("layer", [("rank", 1), ("name", "BNC")])
        for i, (_, bnc, _) in enumerate(sent.words):
            s, e = sent.span(i)
            doc.leaf("label", [("name", bnc), ("start", s), ("end", e)])
        doc.close("layer")
        doc.close("annotationSet")
        doc.open("annotationSet", [("cDate", CDATE), ("status", "MANUAL"), ("ID", sent_id * 10 + 2)])
        target_spans = [sent.span(i) for i in targets]
        doc.open("layer", [("rank", 1), ("name", "Target")])
        for s, e in target_spans:
            doc.leaf("label", [("cBy", CBY), ("start", s), ("end", e), ("name", "Target")])
        doc.close("layer")
        overt = []
        for rank in (1, 2):
            ranked = [f for f in fes if f[0] == rank]
            if not ranked and rank == 2:
                continue
            doc.open("layer", [("rank", rank), ("name", "FE")])
            spans = []
            for _, name, fe_id, first, last in ranked:
                s, e = sent.span(first, last)
                spans.append((s, e, name))
                doc.leaf("label", [("cBy", CBY), ("start", s), ("end", e), ("name", name),
                                   ("feID", fe_id)])
            if rank == 1:
                for name, fe_id, itype in ni:
                    doc.leaf("label", [("cBy", CBY), ("name", name), ("itype", itype),
                                       ("feID", fe_id)])
            doc.close("layer")
            overt += sorted(spans)
        for layer, labels in (("GF", ("Ext", "Dep", "Dep", "Dep", "Dep")),
                              ("PT", ("NP", "PP", "PP", "PP", "PP"))):
            doc.open("layer", [("rank", 1), ("name", layer)])
            for label, (_, _, _, first, last) in zip(labels, [f for f in fes if f[0] == 1]):
                s, e = sent.span(first, last)
                doc.leaf("label", [("cBy", CBY), ("start", s), ("end", e), ("name", label)])
            doc.close("layer")
        if support is not None:
            s, e = sent.span(support)
            doc.open("layer", [("rank", 1), ("name", "Noun" if lu["name"].endswith(".n") else "Adj")])
            doc.leaf("label", [("cBy", CBY), ("start", s), ("end", e), ("name", "Supp")])
            doc.close("layer")
        doc.leaf("layer", [("rank", 1), ("name", "Sent")])
        doc.leaf("layer", [("rank", 1), ("name", "Other")])
        doc.close("annotationSet")
        doc.close("sentence")
        return [sent_id, text, [list(t) for t in target_spans], [list(t) for t in overt],
                {name: itype for name, _, itype in ni}]

    # -------------------------------------------------------- full text

    def make_documents(self):
        rng = self.stream("documents")
        n_docs = self.size["docs"]
        counts = heavy_counts(n_docs, self.size["doc_sents"], 200, "sentences-per-doc")
        rng.shuffle(counts)
        n_corpora = max(2, n_docs // 9)
        self.corpora = []
        doc_ids = sorted(rng.sample(range(23000, 23000 + 4 * n_docs), n_docs))
        names = set()
        for c in range(n_corpora):
            while True:
                cname = pseudo_word(rng, 2).capitalize() + rng.choice(("", "Corpus", "News", "Stories"))
                if cname not in names:
                    break
            names.add(cname)
            self.corpora.append(dict(ID=100 + 7 * c, name=cname,
                                     description=f"Texts from {cname}", docs=[]))
        for k, (doc_id, count) in enumerate(zip(doc_ids, counts)):
            corpus = self.corpora[k % n_corpora]
            while True:
                dname = "_".join(pseudo_word(rng, 2).capitalize() for _ in range(rng.choice((1, 2, 3))))
                if dname not in names:
                    break
            names.add(dname)
            corpus["docs"].append(dict(
                ID=doc_id, name=dname, description=f"The {dname.replace('_', ' ')} text",
                count=count, prefixed=rng.random() < 0.5,
            ))

    def write_documents(self):
        rng = self.stream("fulltext")
        lexical = [(lu_id, lu, f) for lu_id, lu, f in self.lus]
        sent_id = 4_000_000
        aset_id = 50_000_000
        self.documents = []
        for corpus in self.corpora:
            for d in corpus["docs"]:
                doc = Doc()
                doc.open("fullTextAnnotation", [("xmlns", XMLNS)])
                doc.open("header")
                doc.open("corpus", [("description", corpus["description"]),
                                    ("name", corpus["name"]), ("ID", corpus["ID"])])
                doc.leaf("document", [("ID", d["ID"]), ("name", d["name"]),
                                      ("description", d["description"])])
                doc.close("corpus")
                doc.close("header")
                sentences = []
                parag = 1
                for sent_no in range(1, d["count"] + 1):
                    sent_id += rng.randrange(1, 9)
                    if rng.random() < 0.2:
                        parag += 1
                    entry, aset_id = self.write_ft_sentence(
                        doc, rng, corpus, d, sent_id, sent_no, parag, aset_id, lexical)
                    sentences.append(entry)
                doc.close("fullTextAnnotation")
                prefix = f"{corpus['name']}__" if d["prefixed"] else ""
                self.write(f"fulltext/{prefix}{d['name']}.xml", doc)
                self.documents.append([d["ID"], d["name"], corpus["name"], sentences])
        self.documents.sort(key=lambda e: e[0])

    def write_ft_sentence(self, doc, rng, corpus, d, sent_id, sent_no, parag, aset_id, lexical):
        sent = Sentence()
        budget = self.sentence_length(rng) + 4
        events = []       # (lu_id, lu, frame, targets, [(name, feID, first, last)], status)
        n_events = rng.choice((1, 1, 2, 2, 3, 3, 4, 5))
        for k in range(n_events):
            if k:
                sent.add(*rng.choice(((",", "PUN", ","), ("and", "CJC", "CC"), ("that", "CJT", "IN"))))
            lu_id, lu, frame = rng.choice(lexical)
            pos = lu["name"].rpartition(".")[2].upper()
            fes = []
            core = [fe for fe in frame["FE"] if fe["coreType"] == "Core"] or frame["FE"]
            if rng.random() < 0.7:
                first, last = add_phrase(rng, sent, prep=False)
                fes.append((core[0]["name"], core[0]["ID"], first, last))
            targets = target_tokens(rng, sent, lu["name"], pos)
            if len(core) > 1 and rng.random() < 0.6:
                first, last = add_phrase(rng, sent, prep=True)
                fes.append((core[1]["name"], core[1]["ID"], first, last))
            roll = rng.random()
            status = "UNANN" if roll < 0.15 else "MANUAL"
            if roll > 0.97:
                # An annotation whose LU the index does not list ("Problem").
                lu_id, lu = 900000 + rng.randrange(10**5), dict(name=lu["name"].split(".")[0] + ".v")
            events.append((lu_id, lu, frame, targets, fes, status))
        while len(sent.words) < budget:
            add_fillers(rng, sent, rng.randrange(1, 4))
        sent.add(".", "PUN", ".")
        text = sent.text
        doc.open("sentence", [("corpID", corpus["ID"]), ("docID", d["ID"]), ("sentNo", sent_no),
                              ("paragNo", parag), ("aPos", sent_no * 137), ("ID", sent_id)])
        doc.leaf("text", text=text)
        aset_id += 1
        doc.open("annotationSet", [("cDate", CDATE), ("status", "UNANN"), ("ID", aset_id)])
        doc.open("layer", [("rank", 1), ("name", "PENN")])
        for i, (_, _, penn) in enumerate(sent.words):
            s, e = sent.span(i)
            doc.leaf("label", [("name", penn), ("start", s), ("end", e)])
        doc.close("layer")
        doc.close("annotationSet")
        asets = []
        for index, (lu_id, lu, frame, targets, fes, status) in enumerate(events, start=1):
            aset_id += 1
            doc.open("annotationSet", [("cDate", CDATE), ("luID", lu_id), ("luName", lu["name"]),
                                       ("frameID", frame["ID"]), ("frameName", frame["name"]),
                                       ("status", status), ("ID", aset_id)])
            target_spans = [sent.span(i) for i in targets]
            doc.open("layer", [("rank", 1), ("name", "Target")])
            for s, e in target_spans:
                doc.leaf("label", [("cBy", CBY), ("start", s), ("end", e), ("name", "Target")])
            doc.close("layer")
            overt = []
            if status == "MANUAL":
                doc.open("layer", [("rank", 1), ("name", "FE")])
                for name, fe_id, first, last in fes:
                    s, e = sent.span(first, last)
                    overt.append((s, e, name))
                    doc.leaf("label", [("cBy", CBY), ("start", s), ("end", e), ("name", name),
                                       ("feID", fe_id)])
                doc.close("layer")
                for layer, labels in (("GF", ("Ext", "Dep")), ("PT", ("NP", "PP"))):
                    doc.open("layer", [("rank", 1), ("name", layer)])
                    for label, (_, _, first, last) in zip(labels, fes):
                        s, e = sent.span(first, last)
                        doc.leaf("label", [("cBy", CBY), ("start", s), ("end", e), ("name", label)])
                    doc.close("layer")
            doc.close("annotationSet")
            asets.append([index, lu_id, lu["name"], frame["name"], status,
                          [list(t) for t in target_spans], [list(t) for t in sorted(overt)]])
        doc.close("sentence")
        return [sent_id, text, asets], aset_id

    # -------------------------------------------------------- all parts

    def run(self):
        self.make_semtypes()
        self.make_frames()
        self.make_lus()
        self.make_relations()
        self.make_documents()
        self.write_semtypes()
        self.write_frames()
        self.write_relations()
        self.write_indexes()
        self.write_lu_files()
        self.write_documents()
        return self.manifest()

    def manifest(self):
        frames = [
            [f["ID"], f["name"], [[fe["ID"], fe["name"], fe["coreType"]] for fe in f["FE"]],
             sorted(lu["ID"] for lu in f["LU"]), len(f["semtypes"])]
            for f in self.frames
        ]
        lus = [[lu_id, lu["name"], f["ID"], lu["count"], lu.get("subcorpora", [])]
               for lu_id, lu, f in self.lus]
        relations = [
            [rel["ID"], rel["type"], rel["sup"]["name"], rel["sub"]["name"],
             rel["sup"]["ID"], rel["sub"]["ID"], len(rel["fe"])]
            for rtype in RELATION_TYPES for rel in self.relations if rel["type"] == rtype[1]
        ]
        return {
            "seed": self.seed,
            "relation_types": [[t[0], t[1], t[2], t[3]] for t in RELATION_TYPES],
            "frames": frames,
            "lus": lus,
            "exemplars": {str(k): v for k, v in self.exemplars.items()},
            "documents": self.documents,
            "relations": relations,
            "semtypes": [[t[1], t[0], t[2]] for t in self.semtypes],
            "totals": {
                "frames": len(frames),
                "lus": len(lus),
                "fes": sum(len(f[2]) for f in frames),
                "lu_files": len(self.exemplars),
                "exemplar_sentences": sum(len(v) for v in self.exemplars.values()),
                "documents": len(self.documents),
                "fulltext_sentences": sum(len(d[3]) for d in self.documents),
                "relations": len(relations),
                "fe_relations": sum(r[6] for r in relations),
                "files": len(self.files),
                "bytes": sum(len(b) for b in self.files.values()),
            },
        }


def tree_digest(root):
    """SHA-256 over this generator's own source, then every file's relative
    path and bytes in path order: a corpus made by another version of the
    generator does not match, even if its files are intact."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file() and p.name != "DIGEST"):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def generate(seed, out, scale="full"):
    """Write the corpus for ``seed`` into ``out`` (replacing it) atomically."""
    out = Path(out)
    gen = Generator(seed, scale)
    manifest = gen.run()
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    for relpath, data in gen.files.items():
        path = tmp / "data" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    (tmp / "manifest.json").write_text(json.dumps(manifest, separators=(",", ":")) + "\n")
    (tmp / "DIGEST").write_text(tree_digest(tmp) + "\n")
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    return manifest["totals"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    totals = generate(args.seed, args.out)
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
