package slo

import "iotsec/internal/correlate"

// ParkedCap exposes the parked-trace bound to the tests.
const ParkedCap = correlate.ParkedCap
