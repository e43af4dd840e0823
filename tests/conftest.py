import io
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from cext_osc import new_params
from cext_osc.spectrum import random_admissible_params

# (alpha0, alpha1) -> taxonomy label, from the worked examples of the
# level-diagram figures.
CAPTION_CASES = [
    (0, 6, "I.1.2"),
    (0, 9, "I.2.2"),
    (10, 4, "II.1.2.2"),
    (10, 7, "II.2.2.2"),
    (18, -12, "III.1.2.2"),
    (21, -15, "III.2.2.2"),
    (0, 10, "I.2.a"),
    (0, 8, "I.2.b"),
    (10, 6, "II.2.2.a"),
    (10, 2, "II.2.2.b"),
    (8, 4, "II.2.2.c"),
    (24, -14, "III.2.2.a"),
    (24, -16, "III.2.2.b"),
    (20, -12, "III.2.2.c"),
    (2, 8, "I.2.abc"),
    (8, 2, "II.1.2.abc"),
    (14, -10, "III.1.1.abc"),
]


def params3(a0, a1):
    return new_params(3, [Fraction(a0), Fraction(a1)])


def reference_energy(p, n):
    """E(n) = n + 1/2 + (beta_mu + beta_{mu+1}) / 2 with beta_lambda = 0, mu = n mod lambda.

    Built from ``p.betas`` alone, independent of ``AlgebraParams.energy``.
    """
    mu = n % p.lam
    upper = p.betas[mu + 1] if mu + 1 < p.lam else 0
    return n + Fraction(1, 2) + (p.betas[mu] + upper) / 2


def streaming_gap(member, firsts, period, cut):
    """Exact max |member[n] - L(n)| over n < cut, L(lambda k + nu) = firsts[nu] + k period.

    The reference for ``Ladder.gap``: it reads ``member`` level by level and streams L in
    integers over L's own common denominator; an equal entry makes no Fraction.
    """
    d = math.lcm(period.denominator, *(f.denominator for f in firsts))
    step = period.numerator * (d // period.denominator)
    ints = [f.numerator * (d // f.denominator) for f in firsts]  # d * firsts, no Fraction built
    ladder = (t + k * step for k in range(cut // len(ints) + 1) for t in ints)
    return max((abs(v - Fraction(t, d)) for v, t in zip(islice(member, cut), ladder)
                if v.numerator * d != t * v.denominator), default=Fraction(0))


def ladder_h0(ops):
    """The diagonal of H0 = (a a+ + a+ a)/2, read off the ladder products of ``ops``."""
    return np.diag(ops.a @ ops.a_dag + ops.a_dag @ ops.a).real / 2


@pytest.fixture
def rng():
    return random.Random(20240826)


def sample_points(rng, count, lam=3, **kwargs):
    return [random_admissible_params(rng, lam=lam, **kwargs) for _ in range(count)]


def random_susy_params(rng, lam=3, max_numer=24, max_denom=8):
    """Random point inside the supersymmetric window for any lambda.

    Draws positive rational spacings, rescales them to sum to lambda, and
    sets alpha_mu = omega_mu - 1; every such point is admissible and every
    1 + alpha_mu is positive.
    """
    raw = [Fraction(rng.randint(1, max_numer), rng.randint(1, max_denom))
           for _ in range(lam)]
    total = sum(raw)
    omegas = [lam * r / total for r in raw]
    return new_params(lam, [w - 1 for w in omegas[:-1]])


# the name the help and --version print when the CLI runs as `python -m cext_osc.cli`
PROG = "python -m cext_osc.cli"


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, as a terminal shows them
    exception: BaseException | None
    exc_info: tuple | None

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()

    @property
    def stderr_bytes(self) -> bytes:
        return self.stderr.encode()


class _Tee(io.StringIO):
    """A captured stream that also copies each write to a shared ``output``."""

    def __init__(self, output):
        super().__init__()
        self.output = output

    def write(self, text):
        self.output.write(text)
        return super().write(text)


def _set_env(values):
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


class Runner:
    """Runs the CLI in this process with stdout and stderr captured.

    ``invoke(main, args)`` calls ``main(args, prog_name=...)`` with ``env`` applied to
    ``os.environ`` (None unsets a name) and restores both afterwards.  A ``SystemExit``
    gives the exit code, and a non-zero one is kept as ``exception``; any other
    exception gives exit code 1 and is kept, or is re-raised if ``catch_exceptions``
    is false.
    """

    def invoke(self, main, args=(), env=None, catch_exceptions=True, prog_name=PROG):
        env = env or {}
        saved_env = {name: os.environ.get(name) for name in env}
        saved_streams = sys.stdout, sys.stderr
        output = io.StringIO()
        sys.stdout, sys.stderr = _Tee(output), _Tee(output)
        _set_env(env)
        exit_code, exception, exc_info = 0, None, None
        try:
            main(list(args), prog_name=prog_name)
        except SystemExit as exc:
            exit_code = exc.code or 0
            if exit_code:
                exception, exc_info = exc, sys.exc_info()
        except Exception as exc:
            if not catch_exceptions:
                raise
            exit_code, exception, exc_info = 1, exc, sys.exc_info()
        finally:
            stdout, stderr = sys.stdout.getvalue(), sys.stderr.getvalue()
            sys.stdout, sys.stderr = saved_streams
            _set_env(saved_env)
        return CliResult(exit_code, stdout, stderr, output.getvalue(), exception, exc_info)
