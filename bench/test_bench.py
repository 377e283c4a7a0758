"""Tests of the benchmark itself (stdlib only).

Run from the root of a checkout:

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import generator  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Item  # noqa: E402

import dyadicspec.cli  # noqa: E402
import dyadicspec.levels  # noqa: E402

# a call that takes milliseconds
QUICK = Item("quick", "mt", "spectrum point re=-1 im=1/3*pi\n")


def module_attributes() -> dict:
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "dyadicspec" or name.startswith("dyadicspec."))
        for key, value in vars(module).items()
    }


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_items(self):
        for name in ("sections", "enclosures", "corpus"):
            w = workloads.WORKLOADS[name]
            self.assertEqual(w.items(7), w.items(7), name)

    def test_seed_changes_seeded_inputs(self):
        for name in ("sections", "enclosures", "corpus"):
            w = workloads.WORKLOADS[name]
            self.assertNotEqual(w.items(7), w.items(8), name)

    def test_every_config_parses(self):
        for w in workloads.WORKLOADS.values():
            for item in w.items(3):
                dyadicspec.cli.parse_config(item.config)

    def test_corpus_varies_only_by_mirror_and_order(self):
        a, b = workloads.corpus_items(1), workloads.corpus_items(2)
        self.assertEqual(len(a), workloads.CORPUS_SIZE)

        # each spectrum of one seed is, up to order, a spectrum of the other or its mirror
        for x in a:
            lines = sorted(x.config.splitlines(keepends=True))
            mirrored = sorted(generator.mirror(line) for line in lines)
            self.assertTrue(
                any(sorted(y.config.splitlines(keepends=True)) in (lines, mirrored) for y in b)
            )

    def test_mirror_negates_imaginary_parts(self):
        self.assertEqual(generator.mirror("spectrum point re=1 im=1/3+2*pi\n"),
                         "spectrum point re=1 im=-1/3-2*pi\n")
        self.assertEqual(generator.mirror("spectrum rect re=[-1,0] im=[-1*pi,1/2]\n"),
                         "spectrum rect re=[-1,0] im=[-1/2,1*pi]\n")
        self.assertEqual(generator.mirror("spectrum ilattice re=0 base=-1/4*pi step=1/2*pi\n"),
                         "spectrum ilattice re=0 base=1/4*pi step=1/2*pi\n")
        self.assertEqual(generator.mirror("spectrum vline re=2\n"), "spectrum vline re=2\n")

    def test_knobs(self):
        k = workloads.knobs("spectrum rect re=[-400,0] im=[-1*pi,1*pi]\nsearch_depth 90\n")
        self.assertEqual((k["abs_re"], k["search_depth"], k["J"]), ("400", 90, None))
        k = workloads.knobs("spectrum ilattice re=1/2 base=0 step=1+3/4*pi\n")
        self.assertEqual(k["lattice_step_den"], 4)


class CheckTest(unittest.TestCase):
    def test_matching_reference_passes(self):
        o = run.call(dyadicspec.cli.main, QUICK)
        ref = {QUICK.key: {"exit": o.exit, "stdout": o.stdout, "stderr": o.stderr}}
        self.assertIsNone(run.check(o, ref))

    def test_tampered_reference_is_a_failure(self):
        o = run.call(dyadicspec.cli.main, QUICK)
        ref = {QUICK.key: {"exit": o.exit, "stdout": o.stdout + " ", "stderr": o.stderr}}
        self.assertEqual(run.check(o, ref), "ReferenceMismatch")
        ref = {QUICK.key: {"exit": 2, "stdout": o.stdout, "stderr": o.stderr}}
        self.assertEqual(run.check(o, ref), "ReferenceMismatch")

    def test_item_that_raises_is_counted_not_fatal(self):
        def main(argv):
            if argv[0] == "mt":
                raise ZeroDivisionError("boom")
            return dyadicspec.cli.main(argv)

        items = [QUICK, Item("after", "levels", QUICK.config)]
        _, outcomes = run.run_pass(main, items)
        run.mark(outcomes, {}, None, "")
        self.assertEqual([o.failure for o in outcomes], ["ZeroDivisionError", None])
        self.assertEqual(outcomes[1].exit, 0)

    def test_unexpected_exit_without_reference(self):
        bad = Item("bad", "classify", "spectrum nosuch re=0\n")
        o = run.call(dyadicspec.cli.main, bad)
        self.assertEqual((o.error, run.check(o, {})), (None, "Exit1"))

    def test_changed_output_between_passes_is_a_failure(self):
        first = [run.call(dyadicspec.cli.main, QUICK)]
        again = [run.call(dyadicspec.cli.main, QUICK)]
        again[0].stdout += "x"
        run.mark(again, {}, first, "Nondeterministic")
        self.assertEqual(again[0].failure, "Nondeterministic")

    def test_tail_percentile(self):
        self.assertEqual(run.tail([float(i) for i in range(100)]), (90.0, 89.0))
        self.assertEqual(run.tail([float(i) for i in range(11)]), (100 / 11, 0.0))
        self.assertEqual(run.tail([1.0, 2.0]), (None, None))


class TracerTest(unittest.TestCase):
    def test_wrappers_removed_after_run(self):
        before = module_attributes()
        method = dyadicspec.levels.LevelCache.__dict__["level"]
        tracer = Tracer()
        with tracer:
            # aliases are wrapped too
            self.assertIsNot(dyadicspec.cli.run_classify, before[("dyadicspec.classify", "classify")])
            # the package re-exports the function under the submodule's name
            self.assertIs(dyadicspec.cli.run_classify, sys.modules["dyadicspec.classify"].classify)
            self.assertIsNot(dyadicspec.levels.LevelCache.__dict__["level"], method)
            run.call(dyadicspec.cli.main, Item("c", "classify", "spectrum point re=-1 im=1/3*pi\n"))
        after = module_attributes()
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertIs(dyadicspec.levels.LevelCache.__dict__["level"], method)
        self.assertGreater(len(tracer.fids), 0)

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer:
            run.call(dyadicspec.cli.main, Item("c", "classify", "spectrum vline re=0\n"))
        s = tracer.summary()
        self.assertEqual(s["cli.run"]["calls"], 1)
        self.assertEqual(s["classify.classify"]["calls"], 1)
        roots = [i for i, p in enumerate(tracer.parents) if p < 0]
        total = sum(tracer.ends[i] - tracer.starts[i] for i in roots)
        self.assertAlmostEqual(sum(r["self_s"] for r in s.values()), total, delta=1e-6)
        self.assertLess(s["cli.run"]["self_s"], total)

    def test_traced_output_equals_untraced(self):
        item = Item("c", "classify", "spectrum rect re=[-1,0] im=[-1*pi,1*pi]\n")
        plain = run.call(dyadicspec.cli.main, item)
        with Tracer():
            traced = run.call(dyadicspec.cli.main, item)
        self.assertEqual(plain.digest, traced.digest)


if __name__ == "__main__":
    unittest.main()
