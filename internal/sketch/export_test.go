package sketch

// QuantileTopBound is the quantile layout's top bucket bound, for the
// external tests.
var QuantileTopBound = quantBounds[len(quantBounds)-1]
