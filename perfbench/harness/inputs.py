"""Seeded request files built from an mbctl-generated corpus.

Every request is one protocol line whose "type" comes first. score_pair
requests pair two sibling creatives (same adgroup) in a seeded
orientation; predict_ctr requests carry one creative. Snippet fields are
the creative's lines joined by '|'. For cache-miss traffic the first
snippet field ends in the placeholder @NONCE@, which the load client
replaces with a per-request nonce the tokenizer ignores.
"""

import json
import random

NONCE = "@NONCE@"


def read_corpus(path):
    """[(adgroup_id, [creative text, ...]), ...] in file order."""
    groups = []
    index = {}
    with open(path, encoding="utf-8") as corpus:
        for line in corpus:
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.rstrip("\n").split("\t")
            adgroup, text = fields[0], fields[-1]
            if adgroup not in index:
                index[adgroup] = len(groups)
                groups.append((adgroup, []))
            groups[index[adgroup]][1].append(text)
    return groups


def snippet_field(text):
    """Corpus text "l1 | l2 | l3" as the protocol field "l1|l2|l3"."""
    return "|".join(part.strip() for part in text.split("|"))


def request_line(request):
    return json.dumps(request, separators=(",", ":"), ensure_ascii=False)


def pair_line(a, b, nonce=False):
    return request_line({"type": "score_pair", "a": a + (NONCE if nonce else ""), "b": b})


def point_line(snippet, nonce=False):
    return request_line({"type": "predict_ctr", "snippet": snippet + (NONCE if nonce else "")})


def payloads(groups, rng):
    """Distinct sibling pairs and distinct snippets, each in seeded order."""
    pairs, snippets, seen = [], [], set()
    for _, texts in groups:
        fields = [snippet_field(text) for text in texts]
        for field in fields:
            if field not in seen:
                seen.add(field)
                snippets.append(field)
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                if fields[i] != fields[j]:
                    pair = (fields[i], fields[j])
                    pairs.append(pair if rng.random() < 0.5 else pair[::-1])
    rng.shuffle(pairs)
    rng.shuffle(snippets)
    return pairs, snippets


def miss_requests(groups, seed, per_endpoint=4096):
    """50/50 score_pair / predict_ctr lines, each with a nonce placeholder."""
    rng = random.Random(seed)
    pairs, snippets = payloads(groups, rng)
    n = min(per_endpoint, len(pairs), len(snippets))
    lines = ([pair_line(a, b, nonce=True) for a, b in pairs[:n]] +
             [point_line(s, nonce=True) for s in snippets[:n]])
    rng.shuffle(lines)
    return lines


def hot_requests(groups, seed, working_set=2048):
    """`working_set` distinct lines, half score_pair and half predict_ctr."""
    rng = random.Random(seed)
    pairs, snippets = payloads(groups, rng)
    half = working_set // 2
    if len(pairs) < half or len(snippets) < half:
        raise ValueError("corpus too small for a working set of %d" % working_set)
    lines = [pair_line(a, b) for a, b in pairs[:half]] + [point_line(s) for s in snippets[:half]]
    rng.shuffle(lines)
    return lines


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as out:
        for line in lines:
            out.write(line + "\n")
