"""Host-speed calibration: benchmark times are scaled to a reference host speed.

The host this benchmark was built on shares its cores with other tenants.
Its execution speed switches between a fast and a slow state, up to 2x
apart, within fractions of a second, and a slow spell can last minutes.  CPU
time drifts with wall time, so it is lost speed, not waiting.  A median over
one run removes per-request noise but not a slow spell that covers most of
the run.

So the benchmark times reference work of the same kind, which runs no
suptail code, next to every measured interval, and multiplies the interval
by the reference's time on that host in its fast state over its time there.
A time is reported as it would read on that host in its fast state: a change
to suptail moves it, a change of host speed mostly does not.

Requests are scaled by ``calibrate``, timed just before and just after each
request; it exercises the kinds of work the requests do (adaptive quadrature
with a Python integrand, NumPy generator construction, dict and float work in
the interpreter).  Imports are scaled by a reference import of
standard-library modules timed in the same interpreter.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad

# The calibration's time on the 2-vCPU Xeon host the benchmark was defined
# on, in its fast state; it fixes the scale of every reported time.
REFERENCE_S = 0.0022

# Import times are scaled the same way, by a reference import timed in the same
# interpreter right after ``import suptail.cli``: standard-library modules that
# neither suptail nor NumPy/SciPy load, so the work is of the same kind (path
# lookups, unmarshalling, module bodies, C extensions) and none of it is
# suptail's.  The calibration loop tracks import time much worse.
REFERENCE_IMPORTS = (
    "email.parser, email.mime.multipart, http.client, xml.etree.ElementTree, xml.dom.minidom, "
    "sqlite3, tarfile, configparser, plistlib, imaplib, smtplib, xmlrpc.client, mailbox, "
    "asyncio, pdb, doctest, urllib.request"
)
# The reference import's time on the same host in its fast state.
REFERENCE_IMPORT_S = 0.05


def _integrand(x: float) -> float:
    return math.exp(-x * x) * x ** 0.3


def calibrate() -> float:
    """Seconds for the fixed calibration workload, now."""
    t0 = time.perf_counter()
    for k in range(1, 10):
        quad(lambda x: _integrand(x) * math.cos(k * x), 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
        quad(_integrand, 1.0, np.inf, weight="cos", wvar=float(k), epsabs=1e-12, limit=200, limlst=200)
    for i in range(60):
        np.random.default_rng(np.random.SeedSequence(1, spawn_key=(i,))).standard_normal(16)
    table = {}
    for i in range(1500):
        table[(i % 97, 0.5 * i)] = math.sqrt(i + 1.0)
    return time.perf_counter() - t0


def scales(samples: list[float]) -> list[float]:
    """REFERENCE_S over the mean of each pair of adjacent calibration times:
    the scale of the interval between sample i and sample i + 1."""
    return [2.0 * REFERENCE_S / (a + b) for a, b in zip(samples, samples[1:])]
