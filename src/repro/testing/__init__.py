"""Test drivers and oracles that ship with the library.

The serving stack never imports this package: the fault seam the
library consults is the production module :mod:`repro.faults`.  What
lives here drives or checks the library from outside:

- :mod:`repro.testing.faults` -- :class:`~repro.testing.faults.ChaosRunner`
  (seeded schedules arming kill-points and disk faults on the seam) and
  :func:`~repro.testing.faults.run_threads` (real-thread soaks);
- :mod:`repro.testing.diskfaults` -- :func:`~repro.testing.diskfaults.flip_bit`,
  bit rot at rest;
- :mod:`repro.testing.xpath_oracle` -- the AST interpreter the compiled
  XPath pipeline is differentially checked against.
"""
