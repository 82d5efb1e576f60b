"""Seeded workloads: the instance corpus and the CLI command list of each.

A workload is a list of `hypercount` command lines over a corpus of
generated instances.  Everything is derived from the workload name and the
benchmark seed, so the same seed always gives the same corpus and commands.
Each workload also carries a fixed set of anchor commands: the baseline
points ROADMAP item 1 records, on generator seed 0, independent of the
benchmark seed.  Anchors run once per run, outside the timed passes.

Sizes are chosen so that one pass over the 40 commands of a list takes
about two seconds on one core, so a run of 22 seconds repeats every command
many times and still has ten commands beyond its tail percentile.
Girth-5 instances use r = 2 only: with r = 3 (or k = 4 at small n) the
generator's restart count, and so its time, swings about tenfold between
seeds.  Even at r = 2 one girth-5 generation takes from 5 to 600 ms
depending on its generator seed, so girth-5 instances never take their
generator seed from the benchmark seed: they come from the fixed pool
POOL_SEEDS, which the corpus always holds whole, so the set-up work is the
same for every benchmark seed.  The benchmark seed chooses the instances
without a girth bound, which member of the pool each command uses, and the
classes.  The pool of `truncation` has one seed per size: it uses nine
girth-5 sizes, and three seeds of each would triple its set-up time.
`partition` pools its 3-regular kp-check instances the same way, because
they sit at the p75 rank and their cost differs between generator seeds.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("truncation", "exact-compare", "generate-girth", "partition")
# generator seeds of the pooled instances, for each shape a workload uses
POOL_SEEDS = {"truncation": (0,), "exact-compare": (0, 1, 2), "partition": (0,)}


@dataclass(frozen=True)
class Instance:
    """A generated instance: `generate --k k --n n --r r --seed seed`."""

    k: int
    n: int
    r: int
    seed: int
    min_girth: Optional[int] = None

    @property
    def name(self) -> str:
        g = self.min_girth or 0
        return f"k{self.k}-n{self.n}-r{self.r}-g{g}-s{self.seed}.hg"

    def generate_args(self) -> tuple:
        args = ("generate", "--k", str(self.k), "--n", str(self.n),
                "--r", str(self.r), "--seed", str(self.seed))
        if self.min_girth:
            args += ("--min-girth", str(self.min_girth))
        return args


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  `args` excludes the input path, which is
    `instance` resolved inside the corpus directory."""

    args: tuple
    instance: Optional[Instance] = None
    anchor: Optional[str] = None  # ROADMAP figure this command reproduces

    @property
    def id(self) -> str:
        head = " ".join(self.args)
        return head if self.instance is None else f"{head} -i {self.instance.name}"

    def argv(self, corpus_dir: str) -> list:
        out = list(self.args)
        if self.instance is not None:
            out += ["-i", os.path.join(corpus_dir, self.instance.name)]
        return out

    def option(self, flag: str) -> Optional[str]:
        """Value following `flag` in the arguments, or None."""
        if flag in self.args:
            return self.args[self.args.index(flag) + 1]
        return None


@dataclass
class Workload:
    name: str
    commands: list
    anchors: list
    warmup: Command
    instances: list


class _Pool:
    """Instances whose generator seed comes from a fixed set of seeds, the
    benchmark seed choosing among them; the corpus holds every seed of the
    set for each shape drawn."""

    def __init__(self, rng: random.Random, seeds: tuple):
        self.rng = rng
        self.seeds = seeds
        self.shapes = set()

    def pick(self, n: int, r: int, min_girth: Optional[int] = None) -> Instance:
        self.shapes.add((n, r, min_girth or 0))
        return Instance(3, n, r, self.rng.choice(self.seeds), min_girth)

    def members(self) -> list:
        return [Instance(3, n, r, s, g or None) for n, r, g in sorted(self.shapes)
                for s in self.seeds]


def _instances(pool: Optional[_Pool], *lists) -> list:
    """The instances the commands use, plus every member of the pool."""
    insts = [c.instance for cmds in lists for c in cmds if c.instance is not None]
    seen = {}
    for inst in insts + (pool.members() if pool else []):
        seen.setdefault(inst.name, inst)
    return list(seen.values())


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _gseed(rng: random.Random) -> int:
    return rng.randrange(1_000_000)


def _truncation(seed: int) -> Workload:
    rng = _rng("truncation", seed)
    pool = _Pool(rng, POOL_SEEDS["truncation"])
    anchors = [
        Command(("log-xi-trunc", "--class", "0", "--t", "5"),
                Instance(3, 10, 2, 0), anchor="truncated_log_xi (3,10,2) t=5: 2.0 s"),
        Command(("log-xi-trunc", "--class", "0", "--t", "3"),
                Instance(3, 40, 3, 0), anchor="truncated_log_xi (3,40,3) t=3: 0.94 s"),
    ]
    cmds = []
    # Linear 2-regular girth-5 instances: shallow t over a range of n.
    for n in (8, 10, 12, 14, 16):
        inst = pool.pick(n, 2, 5)
        c1, c2, c3 = rng.sample(range(3), 3)
        cmds += [
            Command(("estimate", "--t", "3"), inst),
            Command(("log-xi-trunc", "--class", str(c1), "--t", "3"), inst),
            Command(("log-xi-trunc", "--class", str(c2), "--t", "3"), inst),
            Command(("estimate", "--t", "2"), inst),
            Command(("log-xi-trunc", "--class", str(c3), "--t", "2"), inst),
        ]
    for n in (20, 24):
        inst = pool.pick(n, 2, 5)
        cmds += [
            Command(("log-xi-trunc", "--class", str(rng.randrange(3)), "--t", "3"), inst),
            Command(("estimate", "--t", "2"), inst),
            Command(("log-xi-trunc", "--class", str(rng.randrange(3)), "--t", "2"), inst),
        ]
    # Deeper t on the smallest girth-5 instances.
    for n in (6, 7):
        inst = pool.pick(n, 2, 5)
        cmds.append(Command(("log-xi-trunc", "--class", str(rng.randrange(3)), "--t", "4"),
                            inst))
    cmds.append(Command(("estimate", "--t", "4"), pool.pick(6, 2, 5)))
    # 3-regular instances without a girth bound (girth 5 at r = 3 is too
    # slow and too seed-dependent to generate).
    for n in (8, 10, 12):
        inst = Instance(3, n, 3, _gseed(rng))
        cmds += [
            Command(("estimate", "--t", "3" if n == 8 else "2"), inst),
            Command(("log-xi-trunc", "--class", str(rng.randrange(3)), "--t", "3"), inst),
        ]
    warm = Command(("estimate", "--t", "2"), Instance(3, 6, 2, _gseed(rng)))
    return Workload("truncation", cmds, anchors, warm,
                    _instances(pool, [warm], anchors, cmds))


def _exact_compare(seed: int) -> Workload:
    rng = _rng("exact-compare", seed)
    pool = _Pool(rng, POOL_SEEDS["exact-compare"])
    anchors = [Command(("exact-count",), Instance(3, n, 2, 0),
                       anchor=f"count_independent_sets gen(3,{n},2,0): {fig} s")
               for n, fig in ((14, "0.14"), (16, "0.36"), (18, "1.15"), (20, "2.75"))]
    # Girth-5 instances: their counting time varies far less between seeds
    # than that of unbounded ones, and compare also reports the t=2 closed
    # forms on them.
    cmds = []
    for n in (9, 10, 11, 12, 13, 9, 10, 11, 12, 13, 10, 11, 12):
        inst = pool.pick(n, 2, 5)
        cmds += [Command(("exact-count",), inst), Command(("compare", "--t", "1"), inst),
                 Command(("compare", "--t", "2"), inst)]
    cmds.append(Command(("exact-count",), pool.pick(13, 2, 5)))
    warm = Command(("exact-count",), Instance(3, 8, 2, _gseed(rng)))
    return Workload("exact-compare", cmds, anchors, warm,
                    _instances(pool, [warm], anchors, cmds))


def _generate_girth(seed: int) -> Workload:
    rng = _rng("generate-girth", seed)
    anchors = [Command(Instance(3, n, 2, 0).generate_args(),
                       anchor=f"gen_linear_regular(3,{n},2,0) no girth bound: {fig} s")
               for n, fig in ((400, "0.23"), (800, "0.94"))]
    # A fixed grid of girth-5 generations.  Restarts make the time of one
    # girth-5 generation swing up to tenfold between generator seeds, so
    # girth-5 seeds drawn per benchmark seed would dominate the spread of
    # every timing; the grid is the same for every benchmark seed, which
    # varies only the generations without a girth bound.
    cmds = [Command(Instance(3, n, 2, gseed, 5).generate_args())
            for n in (16, 20, 24, 32) for gseed in range(3)]
    # A ramp of sizes, then seven generations at n = 200 around the median
    # rank and seven at n = 260 around the p75 rank, below the seven
    # heaviest girth-5 points, so cmd_p50_s and cmd_tail_s each read the
    # middle of a group of like commands, not one command on a steep part of
    # the latency curve.
    for n in list(range(40, 170, 10)) + [200] * 7 + [230] + [260] * 7:
        cmds.append(Command(Instance(3, n, 2, _gseed(rng)).generate_args()))
    # a girth-5 warm-up, to exercise the loose-cycle search the commands
    # spend their time in
    warm = Command(Instance(3, 32, 2, 0, 5).generate_args())
    return Workload("generate-girth", cmds, anchors, warm, [])


def _partition(seed: int) -> Workload:
    rng = _rng("partition", seed)
    pool = _Pool(rng, POOL_SEEDS["partition"])
    cmds = []
    # Xi's cost grows steeply with n, so the b=1 points sit at a few close
    # sizes rather than one large instance dominating the pass.  They hold
    # the median rank, and their cost differs up to threefold between
    # generator seeds, so they are a fixed grid of generator seeds 0..3 and
    # the benchmark seed picks only their classes.
    for n in (34, 35, 36):
        for gseed in range(4):
            cmds.append(Command(("xi", "--class", str(rng.randrange(3)), "--b", "1"),
                                Instance(3, n, 2, gseed)))
    for n in (15, 16, 17, 18):
        inst = Instance(3, n, 2, _gseed(rng))
        cls = str(rng.randrange(3))
        cmds += [Command(("xi", "--class", cls, "--b", str(b)), inst) for b in (1, 2, 3)]
    # five kp-check points of one size and shape at the p75 rank, with
    # seven heavier commands above them, so cmd_tail_s does not hinge on the
    # gap between two commands of different kinds
    for n in (10, 10, 10, 10, 10, 11, 11, 11, 12, 13, 14, 15):
        cmds.append(Command(("kp-check", "--class", str(rng.randrange(3)), "--b", "3"),
                            pool.pick(n, 3)))
    for n in (30, 36, 42, 48):
        inst = Instance(3, n, 2, _gseed(rng))
        cmds.append(Command(("kp-check", "--class", str(rng.randrange(3)), "--b", "2"), inst))
    warm = Command(("xi", "--class", "0", "--b", "2"), Instance(3, 8, 2, _gseed(rng)))
    return Workload("partition", cmds, [], warm, _instances(pool, [warm], cmds))


_BUILDERS = {
    "truncation": _truncation,
    "exact-compare": _exact_compare,
    "generate-girth": _generate_girth,
    "partition": _partition,
}


def build(name: str, seed: int) -> Workload:
    """The workload's corpus and command list for this seed."""
    return _BUILDERS[name](seed)
