"""An rng whose draws a test pins in advance, so that a test can name the
exact path an encoder takes through its own draws.

Each call kind the encoders make (randrange, shuffle, random) has a FIFO
queue of pinned outcomes. A call takes the next pin of its kind, after
checking that the pin is a possible outcome of that call. Once a queue is
empty, calls of that kind, and every other call, go to the `rest` rng; with
rest=None they raise instead. `check_consumed` fails if a pin was never used.
"""


class PinnedRandom:
    def __init__(self, rest=None, *, randrange=(), shuffle=(), random=()):
        self.rest = rest
        self.pins = {
            "randrange": list(randrange),
            "shuffle": [list(p) for p in shuffle],
            "random": list(random),
        }

    def _pin(self, kind):
        if self.pins[kind]:
            return self.pins[kind].pop(0)
        if self.rest is None:
            raise AssertionError(f"unpinned {kind}() call and no rest rng")
        return None

    def randrange(self, start, stop=None):
        value = self._pin("randrange")
        if value is None:
            return self.rest.randrange(start, stop)
        lo, hi = (0, start) if stop is None else (start, stop)
        if not lo <= value < hi:
            raise AssertionError(f"pinned {value} lies outside randrange({lo}, {hi})")
        return value

    def shuffle(self, x):
        value = self._pin("shuffle")
        if value is None:
            return self.rest.shuffle(x)
        if sorted(value) != sorted(x):
            raise AssertionError(f"pinned {value} is not a permutation of {x}")
        x[:] = value

    def random(self):
        value = self._pin("random")
        if value is None:
            return self.rest.random()
        if not 0 <= value < 1:
            raise AssertionError(f"pinned {value} lies outside [0, 1)")
        return value

    def __getattr__(self, name):
        rest = self.__dict__.get("rest")
        if name.startswith("__"):
            raise AttributeError(name)
        if rest is None:
            raise AssertionError(f"unpinned {name} and no rest rng")
        return getattr(rest, name)

    def check_consumed(self):
        left = {kind: pins for kind, pins in self.pins.items() if pins}
        if left:
            raise AssertionError(f"pins never drawn: {left}")
