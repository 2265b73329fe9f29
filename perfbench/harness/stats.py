"""Quantile and ratio helpers."""


def quantile(values, q):
    """Quantile `q` in [0, 1] by linear interpolation between closest ranks
    (numpy's default, and the rule perfbench_client uses)."""
    if not values:
        raise ValueError("quantile of an empty sequence")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def ratio(numerator, denominator):
    """numerator / denominator, or None when the denominator is zero."""
    if not denominator:
        return None
    return numerator / denominator
