package dispatch

import (
	"fmt"
	"math/rand"
)

// Generator is the open-loop seeded traffic source: a Poisson arrival
// process (exponential interarrival times at Rate requests per second)
// with i.i.d. exponential service demands around DemandMean. Open-loop
// means arrivals do not slow down when the system congests — exactly
// the regime where backpressure policy matters. Deterministic given
// the seed.
type Generator struct {
	rate   float64
	demand float64
	rng    *rand.Rand
	now    float64
	nextID int64
}

// NewGenerator constructs a generator. rate is the mean arrival rate
// in requests per virtual second; demandMean is the mean service
// demand per request in work units.
func NewGenerator(rate, demandMean float64, seed int64) (*Generator, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("dispatch: arrival rate = %v must be positive", rate)
	}
	if demandMean <= 0 {
		return nil, fmt.Errorf("dispatch: demand mean = %v must be positive", demandMean)
	}
	return &Generator{rate: rate, demand: demandMean, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next returns the next request in arrival order. Arrival times are
// strictly increasing.
func (g *Generator) Next() Request {
	g.now += g.rng.ExpFloat64() / g.rate
	g.nextID++
	return Request{
		ID:      g.nextID,
		Arrival: g.now,
		Demand:  g.demand * g.rng.ExpFloat64(),
	}
}
