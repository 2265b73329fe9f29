"""Queries against a running mbserved and parsers for what it returns:
statsz (nested JSON) and metricsz (Prometheus text inside the JSON
envelope)."""

import json
import socket


def query(port, request, timeout=10.0):
    """Sends one request object to 127.0.0.1:`port` and returns the
    response line (without the newline)."""
    line = json.dumps(request, separators=(",", ":")) + "\n"
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(line.encode())
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("connection closed before a full response")
            buffer += chunk
    return buffer.decode().rstrip("\n")


def parse_statsz(line):
    """The statsz response as a dict; raises ValueError unless ok."""
    response = json.loads(line)
    if response.get("ok") is not True:
        raise ValueError("statsz failed: %s" % line[:200])
    return response


def parse_metricsz(line):
    """{sample name (with labels): value} from a metricsz response line."""
    response = json.loads(line)
    if response.get("ok") is not True:
        raise ValueError("metricsz failed: %s" % line[:200])
    return parse_prometheus(response["metrics"])


def parse_prometheus(text):
    """{sample name (with labels): value} from Prometheus text exposition."""
    samples = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


def endpoint_p50_us(statsz, endpoint):
    """Server-side service-time median of one endpoint in microseconds, or
    None when the endpoint has seen no requests."""
    entry = statsz.get("endpoints", {}).get(endpoint)
    if not entry:
        return None
    return entry["latency_p50_ms"] * 1e3


def cache_counts(statsz):
    """(hits, misses) summed over the pair and point caches."""
    hits = statsz["pair_cache"]["hits"] + statsz["point_cache"]["hits"]
    misses = statsz["pair_cache"]["misses"] + statsz["point_cache"]["misses"]
    return hits, misses


def refused(statsz):
    """Requests the server refused: overload + deadline + drained."""
    endpoints = statsz["endpoints"]
    return (endpoints.get("rejected_overload", 0) + endpoints.get("deadline_exceeded", 0) +
            endpoints.get("drained", 0))


def scoring_requests(statsz):
    endpoints = statsz["endpoints"]
    return sum(endpoints.get(name, {}).get("requests", 0)
               for name in ("score_pair", "predict_ctr"))


def delta(before, after, name):
    return after.get(name, 0.0) - before.get(name, 0.0)


def summary_mean_delta(before, after, name):
    """Mean of a Prometheus summary over the samples recorded between two
    scrapes, or None when none were."""
    count = delta(before, after, name + "_count")
    if count <= 0:
        return None
    return delta(before, after, name + "_sum") / count
