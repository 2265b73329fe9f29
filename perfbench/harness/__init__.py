"""The perfbench harness: builds the repository, generates seeded inputs,
drives mbctl / mbserved and reports end-to-end and per-layer metrics."""
