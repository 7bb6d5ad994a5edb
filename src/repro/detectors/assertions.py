"""Assertion-based bug detection.

Assertions are the third dynamic method evaluated in the paper (used
for the semantic bugs of the Siemens suite).  MiniC's
``assert(cond, "id")`` compiles to an ASSERT instruction; this detector
records a report each time one fails.  The assertion's own evaluation
is program code, so the detector itself costs nothing extra.
"""

from __future__ import annotations

from repro.detectors.base import Detector, ReportKind


class AssertionDetector(Detector):

    name = 'assertions'

    def on_assert_fail(self, assert_id, code_addr, interp):
        self._report(ReportKind.ASSERTION, interp,
                     detail='assert %s failed' % assert_id,
                     assert_id=assert_id)
        return 1
