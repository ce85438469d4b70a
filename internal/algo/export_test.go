package algo

// KMeansStep exposes one Lloyd iteration to the call-budget test.
var KMeansStep = kmeansStep
