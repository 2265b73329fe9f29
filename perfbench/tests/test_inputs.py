import json
import os
import tempfile
import unittest

import util  # noqa: F401
from harness import inputs

CORPUS = """#microbrowse-adcorpus-v1\ttop
0\t0\tdesks\t0\t100\t10\t0.1\tshop a | cheap desks today | free shipping
0\t0\tdesks\t1\t100\t9\t0.09\tshop a | great desks now | free shipping
0\t0\tdesks\t2\t100\t8\t0.08\tshop a | "best" desks \\ here | 20% off
1\t1\tmats\t3\t100\t7\t0.07\tyoga co | mats on sale | top rated
1\t1\tmats\t4\t100\t6\t0.06\tyoga co | discount mats | top rated
"""


class InputsTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.corpus = os.path.join(self.dir.name, "corpus.tsv")
        with open(self.corpus, "w") as out:
            out.write(CORPUS)
        self.groups = inputs.read_corpus(self.corpus)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, lines):
        path = os.path.join(self.dir.name, name)
        inputs.write_lines(path, lines)
        with open(path, "rb") as written:
            return written.read()

    def test_reads_adgroups_in_order(self):
        self.assertEqual([group for group, _ in self.groups], ["0", "1"])
        self.assertEqual(len(self.groups[0][1]), 3)
        self.assertEqual(inputs.snippet_field(self.groups[1][1][0]), "yoga co|mats on sale|top rated")

    def test_same_seed_gives_identical_request_files(self):
        for build in (inputs.miss_requests, lambda g, s: inputs.hot_requests(g, s, 4)):
            first = self.write("a.txt", build(self.groups, 7))
            second = self.write("b.txt", build(self.groups, 7))
            self.assertEqual(first, second)
            self.assertNotEqual(first, self.write("c.txt", build(self.groups, 8)))

    def test_miss_lines_carry_one_nonce_and_parse_as_json(self):
        lines = inputs.miss_requests(self.groups, 1)
        pairs = [line for line in lines if '"type":"score_pair"' in line]
        points = [line for line in lines if '"type":"predict_ctr"' in line]
        self.assertEqual(len(pairs), len(points))
        self.assertEqual(len(pairs) + len(points), len(lines))
        for line in lines:
            self.assertEqual(line.count(inputs.NONCE), 1)
            self.assertTrue(line.startswith('{"type":'))
            request = json.loads(line.replace(inputs.NONCE, " .-"))
            self.assertNotIn("\n", line)
            for field in ("a", "b", "snippet"):
                if field in request:
                    self.assertEqual(request[field].count("|"), 2)

    def test_hot_working_set_is_distinct(self):
        lines = inputs.hot_requests(self.groups, 3, 4)
        self.assertEqual(len(set(lines)), 4)
        self.assertTrue(all(inputs.NONCE not in line for line in lines))
        with self.assertRaises(ValueError):
            inputs.hot_requests(self.groups, 3, 1000)


if __name__ == "__main__":
    unittest.main()
