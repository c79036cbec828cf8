// Package geo models the geography the paper aggregates traffic over:
// Germany's 16 federal states and 401 districts (Kreise / kreisfreie
// Städte), each with population, centroid and a representative ZIP area.
//
// The federal states carry their real names, codes, populations and
// district counts (2020 figures). Individual districts are synthesized
// deterministically inside each state — real district shapes and registers
// are not available offline — except for the districts the paper reasons
// about by name: Berlin (a one-district city state), and Gütersloh and
// Warendorf in North Rhine-Westphalia, whose June-23 lockdown anchors the
// outbreak analysis. DESIGN.md documents this substitution.
package geo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// State is a German federal state.
type State struct {
	Code       string // ISO 3166-2:DE code, e.g. "NW"
	Name       string
	Population int
	// NumDistricts is the real number of districts in the state; the
	// synthesizer creates exactly this many.
	NumDistricts int
	// Lat, Lon locate the state's rough centroid.
	Lat, Lon float64
	// SpreadKm controls how far synthesized district centroids scatter.
	SpreadKm float64
}

// District is one Kreis or kreisfreie Stadt.
type District struct {
	ID         string // stable identifier, e.g. "NW-031"
	Name       string
	StateCode  string
	Population int
	Lat, Lon   float64
	// ZIP is a representative 5-digit postal code for the district; the
	// paper's Figure 3 heatmap is "by ZIP code areas".
	ZIP string
	// Urban marks districts with large city populations; adoption and
	// traffic models skew slightly urban.
	Urban bool
}

// states lists the 16 real federal states with 2020 populations and real
// district counts (sums to 401 districts, ~83.1M people).
var states = []State{
	{"BW", "Baden-Württemberg", 11_100_000, 44, 48.66, 9.35, 110},
	{"BY", "Bayern", 13_125_000, 96, 48.95, 11.40, 160},
	{"BE", "Berlin", 3_669_000, 1, 52.52, 13.40, 15},
	{"BB", "Brandenburg", 2_522_000, 18, 52.36, 13.01, 110},
	{"HB", "Bremen", 681_000, 2, 53.08, 8.80, 20},
	{"HH", "Hamburg", 1_847_000, 1, 53.55, 9.99, 15},
	{"HE", "Hessen", 6_288_000, 26, 50.60, 9.03, 100},
	{"MV", "Mecklenburg-Vorpommern", 1_608_000, 8, 53.77, 12.57, 110},
	{"NI", "Niedersachsen", 7_994_000, 45, 52.76, 9.39, 140},
	{"NW", "Nordrhein-Westfalen", 17_947_000, 53, 51.48, 7.55, 110},
	{"RP", "Rheinland-Pfalz", 4_094_000, 36, 49.91, 7.45, 90},
	{"SL", "Saarland", 987_000, 6, 49.40, 6.95, 30},
	{"SN", "Sachsen", 4_072_000, 13, 51.05, 13.35, 90},
	{"ST", "Sachsen-Anhalt", 2_181_000, 14, 51.97, 11.70, 90},
	{"SH", "Schleswig-Holstein", 2_904_000, 15, 54.22, 9.70, 90},
	{"TH", "Thüringen", 2_133_000, 23, 50.90, 11.02, 80},
}

// namedDistricts pins the districts the paper references to their real
// name, population and location inside the synthesized set.
var namedDistricts = map[string]District{
	"BE-000": {ID: "BE-000", Name: "Berlin", StateCode: "BE", Population: 3_669_000, Lat: 52.52, Lon: 13.40, ZIP: "10115", Urban: true},
	"NW-000": {ID: "NW-000", Name: "Gütersloh", StateCode: "NW", Population: 364_000, Lat: 51.90, Lon: 8.38, ZIP: "33330", Urban: false},
	"NW-001": {ID: "NW-001", Name: "Warendorf", StateCode: "NW", Population: 278_000, Lat: 51.95, Lon: 7.99, ZIP: "48231", Urban: false},
}

// Model is the immutable geography shared by simulation and analysis.
type Model struct {
	states    []State
	districts []District
	byID      map[string]int
	byState   map[string][]int
}

// Germany builds the deterministic model. Two calls always produce the
// identical geography, which keeps simulation runs reproducible.
func Germany() *Model {
	m := &Model{
		states:  states,
		byID:    make(map[string]int),
		byState: make(map[string][]int),
	}
	for _, st := range states {
		m.synthesizeState(st)
	}
	// A stable global order (by ID) keeps downstream iteration
	// deterministic regardless of construction details.
	sort.Slice(m.districts, func(i, j int) bool { return m.districts[i].ID < m.districts[j].ID })
	for i, d := range m.districts {
		m.byID[d.ID] = i
		m.byState[d.StateCode] = append(m.byState[d.StateCode], i)
	}
	return m
}

// synthesizeState creates the state's districts: pinned named districts
// first, then deterministic synthetic ones whose populations follow a
// log-normal spread rescaled so the state total matches the real state
// population.
func (m *Model) synthesizeState(st State) {
	rng := rand.New(rand.NewSource(seedFor(st.Code)))

	var pinned []District
	pinnedPop := 0
	for i := 0; i < st.NumDistricts; i++ {
		id := fmt.Sprintf("%s-%03d", st.Code, i)
		if d, ok := namedDistricts[id]; ok {
			pinned = append(pinned, d)
			pinnedPop += d.Population
		}
	}
	nSynth := st.NumDistricts - len(pinned)
	remaining := st.Population - pinnedPop

	// Draw raw log-normal weights, then rescale to the remaining
	// population. Sigma 0.6 gives the realistic mix of ~100k rural
	// districts and milion-city outliers.
	weights := make([]float64, nSynth)
	var wsum float64
	for i := range weights {
		weights[i] = math.Exp(rng.NormFloat64() * 0.6)
		wsum += weights[i]
	}
	m.districts = append(m.districts, pinned...)
	for i := 0; i < nSynth; i++ {
		pop := int(float64(remaining) * weights[i] / wsum)
		if pop < 35_000 {
			pop = 35_000 // smallest real German district is ~34k
		}
		lat, lon := scatter(rng, st)
		id := fmt.Sprintf("%s-%03d", st.Code, len(pinned)+i)
		m.districts = append(m.districts, District{
			ID:         id,
			Name:       fmt.Sprintf("%s Kreis %d", st.Name, len(pinned)+i),
			StateCode:  st.Code,
			Population: pop,
			Lat:        lat,
			Lon:        lon,
			ZIP:        zipFor(st.Code, len(pinned)+i),
			Urban:      pop > 250_000,
		})
	}
}

// scatter places a district centroid around the state centroid within
// SpreadKm, converting kilometres to degrees at German latitudes.
func scatter(rng *rand.Rand, st State) (lat, lon float64) {
	const kmPerDegLat = 111.0
	kmPerDegLon := 111.0 * math.Cos(st.Lat*math.Pi/180)
	dx := (rng.Float64()*2 - 1) * st.SpreadKm
	dy := (rng.Float64()*2 - 1) * st.SpreadKm
	return st.Lat + dy/kmPerDegLat, st.Lon + dx/kmPerDegLon
}

// seedFor derives a stable per-state seed from the state code.
func seedFor(code string) int64 {
	var s int64 = 1469598103934665603
	for _, c := range code {
		s ^= int64(c)
		s *= 1099511628211
	}
	return s
}

// zipFor synthesizes a plausible 5-digit ZIP for a district. German ZIP
// leading digits loosely follow regions; a fixed per-state leading digit
// keeps the rendering grouped.
func zipFor(code string, idx int) string {
	lead := map[string]int{
		"BW": 7, "BY": 8, "BE": 1, "BB": 1, "HB": 2, "HH": 2, "HE": 6,
		"MV": 1, "NI": 3, "NW": 4, "RP": 5, "SL": 6, "SN": 0, "ST": 0,
		"SH": 2, "TH": 9,
	}[code]
	return fmt.Sprintf("%d%04d", lead, (idx*37)%10000)
}

// States returns the 16 federal states.
func (m *Model) States() []State {
	out := make([]State, len(m.states))
	copy(out, m.states)
	return out
}

// StateByCode returns the state with the given ISO code.
func (m *Model) StateByCode(code string) (State, bool) {
	for _, s := range m.states {
		if s.Code == code {
			return s, true
		}
	}
	return State{}, false
}

// Districts returns all districts in stable (ID) order. The slice is a
// copy; the model itself is immutable.
func (m *Model) Districts() []District {
	out := make([]District, len(m.districts))
	copy(out, m.districts)
	return out
}

// NumDistricts returns the total number of districts (401).
func (m *Model) NumDistricts() int { return len(m.districts) }

// DistrictByID looks a district up by its stable identifier.
func (m *Model) DistrictByID(id string) (District, bool) {
	i, ok := m.byID[id]
	if !ok {
		return District{}, false
	}
	return m.districts[i], true
}

// Index is the position of the district with the given id in Districts(),
// the model's canonical order.
func (m *Model) Index(id string) (int, bool) {
	i, ok := m.byID[id]
	return i, ok
}

// DistrictByName finds a district by exact name (the paper refers to
// Gütersloh, Warendorf and Berlin this way).
func (m *Model) DistrictByName(name string) (District, bool) {
	for _, d := range m.districts {
		if d.Name == name {
			return d, true
		}
	}
	return District{}, false
}

// DistrictsOfState returns the districts of one state in stable order.
func (m *Model) DistrictsOfState(code string) []District {
	idxs := m.byState[code]
	out := make([]District, len(idxs))
	for i, idx := range idxs {
		out[i] = m.districts[idx]
	}
	return out
}

// TotalPopulation sums all district populations.
func (m *Model) TotalPopulation() int {
	var sum int
	for _, d := range m.districts {
		sum += d.Population
	}
	return sum
}

// DistanceKm returns the great-circle distance between two districts using
// the haversine formula; the geolocation error model displaces lookups to
// nearby districts with it.
func DistanceKm(a, b District) float64 {
	const r = 6371.0
	la1, lo1 := a.Lat*math.Pi/180, a.Lon*math.Pi/180
	la2, lo2 := b.Lat*math.Pi/180, b.Lon*math.Pi/180
	dla, dlo := la2-la1, lo2-lo1
	h := math.Sin(dla/2)*math.Sin(dla/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2)
	return 2 * r * math.Asin(math.Min(1, math.Sqrt(h)))
}
