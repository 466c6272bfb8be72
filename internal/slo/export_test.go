package slo

// ParkedCap exposes the parked-device-event bound to the tests.
const ParkedCap = parkedCap
