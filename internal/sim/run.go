package sim

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"time"

	"cwatrace/internal/adoption"
	"cwatrace/internal/cdn"
	"cwatrace/internal/cryptopan"
	"cwatrace/internal/cwaserver"
	"cwatrace/internal/device"
	"cwatrace/internal/diagkeys"
	"cwatrace/internal/entime"
	"cwatrace/internal/epidemic"
	"cwatrace/internal/exposure"
	"cwatrace/internal/geo"
	"cwatrace/internal/geodb"
	"cwatrace/internal/netflow"
	"cwatrace/internal/netsim"
)

// event is one scheduled network interaction. The generation phase fills
// the identity fields; the serial control plane annotates the response plan
// (edge, respBytes, upstreamExtra); the emission phase turns the plan into
// packets.
type event struct {
	t          time.Time
	client     netsim.ClientAddr
	clientHash uint64
	req        cdn.Request
	uploadKeys int
	// realCount events happen at real-world (unscaled) frequency; their
	// packets are emitted with probability 1/Scale (see device.Event).
	realCount bool
	// noise kinds: 0 none, 1 IPv6 flow, 2 non-443 port, 3 QUIC.
	noise int

	// Response plan, filled by the control plane for non-noise events.
	edge          netip.Addr
	respBytes     int
	upstreamExtra int
}

// engine holds the mutable state of one Run.
type engine struct {
	cfg       Config
	workers   int
	rng       *rand.Rand // serial-phase randomness (installs, positives, uploads)
	model     *geo.Model
	network   *netsim.Network
	clock     *entime.SimClock
	backend   *cwaserver.Backend
	cdn       *cdn.CDN
	epi       *epidemic.Series
	curve     *adoption.Curve
	attention adoption.Attention
	sampler   *adoption.Sampler
	collector *netflow.Collector
	traffic   device.TrafficModel

	districts []geo.District
	devices   []*device.Device
	addrs     []netsim.ClientAddr // by device index

	// shards partition the simulation by district; see parallel.go.
	shards []*shard

	labels map[netip.Addr]byte

	installCarry float64
	stats        Stats
}

// Run executes the simulation and returns the trace and its companions.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &engine{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	e.workers = cfg.Workers
	if e.workers <= 0 {
		e.workers = runtime.NumCPU()
	}
	e.model = geo.Germany()
	var err error
	e.network, err = netsim.New(e.model, netsim.DefaultISPs())
	if err != nil {
		return nil, err
	}
	e.clock = entime.NewSimClock(cfg.Start)
	e.backend, err = cwaserver.New(cwaserver.DefaultConfig(), e.clock)
	if err != nil {
		return nil, err
	}
	e.cdn, err = cdn.New(cfg.CDN, e.backend, cwaserver.DefaultWebsite())
	if err != nil {
		return nil, err
	}
	e.epi, err = epidemic.Run(e.model, cfg.Epidemic)
	if err != nil {
		return nil, err
	}
	e.curve = cfg.Curve
	if e.curve == nil {
		e.curve = adoption.DefaultCurve()
	}
	e.attention = adoption.DefaultAttention()
	if cfg.Attention != nil {
		e.attention = *cfg.Attention
	}
	e.sampler, err = adoption.NewSampler(adoption.DistrictWeights(e.model))
	if err != nil {
		return nil, err
	}
	anon, err := cryptopan.New(cfg.AnonKey)
	if err != nil {
		return nil, err
	}
	e.labels = make(map[netip.Addr]byte)
	e.traffic = device.DefaultTrafficModel()
	e.districts = e.model.Districts()
	e.collector = netflow.NewCollector(anon, netsim.IsCWAServer)
	e.collector.Resize(len(e.districts))
	e.shards = make([]*shard, len(e.districts))
	for i, d := range e.districts {
		e.shards[i] = &shard{
			idx:      i,
			district: d,
			caches:   make(map[string]*netflow.Cache),
			sink:     e.collector.Shard(i),
			labels:   make(map[netip.Addr]byte),
			anon:     cryptopan.NewMemo(anon),
		}
	}
	e.stats.KeysByDay = make(map[string]int)
	e.stats.WebVisitsByDay = make([]int, int(cfg.End.Sub(cfg.Start)/(24*time.Hour)))

	for day := cfg.Start; day.Before(cfg.End); day = day.AddDate(0, 0, 1) {
		if err := e.runDay(day); err != nil {
			return nil, err
		}
	}
	e.drainAll()

	// Merge shard-local ground-truth labels (bitwise OR is commutative, so
	// merge order is irrelevant).
	for _, s := range e.shards {
		for addr, kind := range s.labels {
			e.labels[addr] |= kind
		}
	}

	// Geolocation database over the full prefix inventory.
	var infos []geodb.PrefixInfo
	for p, routerID := range e.network.AllPrefixes() {
		r, _ := e.network.Router(routerID)
		infos = append(infos, geodb.PrefixInfo{
			Prefix: p, RouterID: routerID,
			DistrictID: r.DistrictID, ISPName: r.ISPName,
		})
	}
	db, err := geodb.Build(e.model, infos, cfg.GeoDB, anon)
	if err != nil {
		return nil, err
	}

	records := e.collector.Records()
	e.stats.Records = len(records)
	uploads, fakes := e.backend.Stats()
	e.stats.Uploads = uploads
	e.stats.FakeCalls = fakes
	e.stats.CacheHits, e.stats.CacheMisses = e.cdn.Stats()
	for _, d := range e.backend.AvailableDays() {
		e.stats.KeysByDay[d] = e.backend.KeyCount(d)
	}
	for _, s := range e.shards {
		for _, id := range s.cacheOrder {
			obs, smp := s.caches[id].Stats()
			e.stats.PacketsObserved += obs
			e.stats.PacketsSampled += smp
		}
	}
	e.stats.Devices = len(e.devices)
	for _, d := range e.devices {
		if d.InstalledAt.Before(cfg.End) {
			e.stats.InstalledByEnd++
		}
	}

	return &Result{
		Records:   records,
		GeoDB:     db,
		Labels:    e.labels,
		Model:     e.model,
		Network:   e.network,
		Backend:   e.backend,
		Curve:     e.curve,
		Attention: e.attention,
		Stats:     e.stats,
	}, nil
}

// runDay simulates one calendar day in three phases: serial population
// bookkeeping, parallel per-shard event generation, a serial control plane
// over the merged timeline, and parallel per-shard packet emission.
func (e *engine) runDay(day time.Time) error {
	nextDay := day.AddDate(0, 0, 1)

	// Phase 0 (serial): today's installs and positive lab results. Both
	// consume the engine RNG and mutate global population state.
	firstNew := len(e.devices)
	if err := e.createInstalls(day, nextDay); err != nil {
		return err
	}
	positiveToday := e.assignPositives(day)

	// Devices plan against the completed days; the running day is covered
	// by hour packages at serve time.
	published := e.backend.AvailableDays()
	today := diagkeys.DayKey(day)
	for len(published) > 0 && published[len(published)-1] >= today {
		published = published[:len(published)-1]
	}
	att := e.attention.At(day.Add(12 * time.Hour))
	dayIdx := int(day.Sub(e.cfg.Start) / (24 * time.Hour))

	// Phase 1 (parallel): per-shard churn, device plans, website visitors,
	// noise; each shard sorts its own event list.
	err := runShards(e.workers, len(e.shards), func(i int) error {
		return e.generateShard(e.shards[i], day, dayIdx, att, published, positiveToday, firstNew)
	})
	if err != nil {
		return err
	}

	// Phase 2 (serial): the hosting-side control plane in global time
	// order.
	if err := e.controlPlane(day); err != nil {
		return err
	}

	// Phase 3 (parallel): packet synthesis and hourly cache sweeps.
	return runShards(e.workers, len(e.shards), func(i int) error {
		e.emitShard(e.shards[i], day, nextDay)
		return nil
	})
}

// generateShard builds one shard's day: address churn, device events, the
// district's website visits and the derived noise, sorted by time. All
// randomness comes from the shard's per-day generation stream.
func (e *engine) generateShard(s *shard, day time.Time, dayIdx int, att float64, published []string, positiveToday map[int]bool, firstNew int) error {
	s.genRNG = newShardRand(shardSeed(e.cfg.Seed, dayIdx, s.idx, purposeGenerate))
	s.emitRNG = newShardRand(shardSeed(e.cfg.Seed, dayIdx, s.idx, purposeEmit))
	rng := s.genRNG

	// Daily address churn for pre-existing devices and web visitors. The
	// churn only touches this district's routers, so shards never race.
	for _, id := range s.devIDs {
		if id < firstNew {
			e.addrs[id] = e.network.MaybeReassign(rng, e.addrs[id])
		}
	}
	for i := range s.webPool {
		s.webPool[i] = e.network.MaybeReassign(rng, s.webPool[i])
	}

	events := getEventSlice()

	// Device-driven events.
	for _, id := range s.devIDs {
		d := e.devices[id]
		ctx := device.DayContext{
			Day:                 day,
			Attention:           att,
			PublishedDays:       published,
			PositiveResultToday: positiveToday[id],
			RNG:                 rng,
		}
		devEvents := d.DayEvents(e.cfg.Device, ctx)
		if len(devEvents) > 0 {
			s.label(e.addrs[id].Addr, LabelApp)
		}
		for _, ev := range devEvents {
			t := ev.Time
			if t.Before(e.cfg.Start) {
				t = e.cfg.Start.Add(time.Duration(rng.Intn(3600)) * time.Second)
			}
			events = append(events, event{
				t:          t,
				client:     e.addrs[id],
				clientHash: uint64(id)*2654435761 + 17,
				req:        ev.Req,
				uploadKeys: ev.UploadKeys,
				realCount:  ev.RealCount,
			})
		}
	}

	// Population website visits (non-app users), hourly Poisson for this
	// district.
	events, err := e.websiteVisits(s, day, events)
	if err != nil {
		putEventSlice(events)
		return err
	}

	// Filter-exercising noise, derived from the shard's real events.
	events = e.noiseEvents(rng, events)

	s.events = s.sortEvents(events)
	return nil
}

// controlPlane walks the merged timeline and performs all stateful
// hosting-side work, annotating each event with its response plan.
func (e *engine) controlPlane(day time.Time) error {
	m := newEventMerger(e.shards)
	for ev := m.next(); ev != nil; ev = m.next() {
		if ev.noise != 0 {
			continue // noise never reaches the hosting stack
		}
		if err := e.control(ev); err != nil {
			return err
		}
	}
	return nil
}

// control performs one event's API call against the hosting stack and
// stores the response plan for the emission phase.
func (e *engine) control(ev *event) error {
	e.clock.Set(ev.t)

	resp, err := e.cdn.Serve(ev.t, ev.clientHash, ev.req)
	if err != nil {
		return fmt.Errorf("sim: serving %v: %w", ev.req.Type, err)
	}
	e.stats.Exchanges++
	hourExtra := 0
	switch ev.req.Type {
	case cdn.ReqWebsite:
		e.stats.WebVisits++
		if d := int(ev.t.Sub(e.cfg.Start) / (24 * time.Hour)); d >= 0 && d < len(e.stats.WebVisitsByDay) {
			e.stats.WebVisitsByDay[d]++
		}
	case cdn.ReqIndex:
		e.stats.Syncs++
		// Hour packages: the app follows its index fetch with the
		// current day's published hour packages, resolved here at serve
		// time (hours fill up as the day progresses). All of them ride
		// the index fetch's TLS connection, so only the payload and
		// header bytes add to that one flow — no extra handshakes, no
		// extra flow records, matching the real client's connection
		// reuse.
		if !ev.req.Fake {
			today := diagkeys.DayKey(ev.t)
			for _, hour := range e.backend.AvailableHours(today) {
				hreq := cdn.Request{Type: cdn.ReqHourPackage, Day: today, Hour: hour}
				hresp, err := e.cdn.Serve(ev.t, ev.clientHash, hreq)
				if err != nil {
					return fmt.Errorf("sim: serving hour package: %w", err)
				}
				e.stats.Exchanges++
				hourExtra += hresp.Bytes - cdn.TLSServerOverhead
			}
		}
	}

	upstreamExtra := 0
	if ev.req.Type == cdn.ReqSubmission && !ev.req.Fake {
		if ev.uploadKeys > 0 {
			payload, err := e.performUpload(ev.uploadKeys)
			if err != nil {
				return err
			}
			upstreamExtra = payload
		} else {
			// A submission event without keys should not happen for
			// real requests; treat as decoy-sized.
			upstreamExtra = 2800
		}
	}

	ev.edge = resp.Edge
	ev.respBytes = resp.Bytes + hourExtra
	ev.upstreamExtra = upstreamExtra
	return nil
}

// emitShard replays one shard's events, synthesizing packets through the
// shard's flow caches with hourly sweeps, then recycles the event slice.
func (e *engine) emitShard(s *shard, day, nextDay time.Time) {
	sweepAt := day.Add(time.Hour)
	for i := range s.events {
		ev := &s.events[i]
		for !ev.t.Before(sweepAt) {
			s.sweep(sweepAt)
			sweepAt = sweepAt.Add(time.Hour)
		}
		if ev.noise != 0 {
			e.emitNoise(s, ev)
			continue
		}
		// Real-count events occur at real-world frequency; their backend
		// side effects (control plane) always run, but their packets join
		// the scaled trace at 1/Scale so upload flows stay the vanishing
		// traffic share they are in the real capture.
		if ev.realCount && s.emitRNG.Float64() >= 1/float64(e.cfg.Scale) {
			continue
		}
		e.emitExchange(s, ev)
	}
	for !nextDay.Before(sweepAt) {
		s.sweep(sweepAt)
		sweepAt = sweepAt.Add(time.Hour)
	}
	putEventSlice(s.events)
	s.events = nil
}

// createInstalls turns the national download curve into new devices.
func (e *engine) createInstalls(day, nextDay time.Time) error {
	realInstalls := e.curve.InstallsBetween(day, nextDay)
	want := realInstalls/float64(e.cfg.Scale) + e.installCarry
	count := int(want)
	e.installCarry = want - float64(count)
	for i := 0; i < count; i++ {
		distIdx := e.sampler.Draw(e.rng)
		isp := e.network.PickISP(e.rng)
		addr, err := e.network.Attach(isp, e.districts[distIdx].ID)
		if err != nil {
			return err
		}
		at := e.installTime(day, nextDay)
		dev := device.New(len(e.devices), distIdx, at, e.cfg.Device, e.rng)
		e.devices = append(e.devices, dev)
		e.addrs = append(e.addrs, addr)
		e.shards[distIdx].devIDs = append(e.shards[distIdx].devIDs, dev.ID)
	}
	return nil
}

// installTime draws a diurnally weighted instant within the day, clamped to
// after the app release.
func (e *engine) installTime(day, nextDay time.Time) time.Time {
	for tries := 0; ; tries++ {
		m := e.rng.Intn(24 * 60)
		if e.rng.Float64()*2.2 > adoption.Diurnal(m/60) && tries < 64 {
			continue
		}
		at := day.Add(time.Duration(m)*time.Minute + time.Duration(e.rng.Intn(60))*time.Second)
		if at.Before(entime.AppRelease) {
			at = entime.AppRelease.Add(time.Duration(e.rng.Intn(7200)) * time.Second)
		}
		if at.Before(nextDay) {
			return at
		}
	}
}

// assignPositives decides which devices receive a positive lab result
// today, honoring the verification-pipeline go-live and ramp.
func (e *engine) assignPositives(day time.Time) map[int]bool {
	out := make(map[int]bool)
	if day.Before(e.cfg.UploadGoLive) {
		return out
	}
	ramp := e.cfg.UploadRampPerDay * (1 + float64(int(day.Sub(e.cfg.UploadGoLive)/(24*time.Hour))))
	if ramp > 1 {
		ramp = 1
	}
	epiDay := e.epi.DayOf(day)
	if epiDay < 0 {
		return out
	}
	// Expected app-user positives per district.
	var lambda float64
	weights := make([]float64, len(e.districts))
	for i, d := range e.districts {
		installed := len(e.shards[i].devIDs)
		if installed == 0 {
			continue
		}
		installedShare := float64(installed*e.cfg.Scale) / float64(d.Population)
		if installedShare > 1 {
			installedShare = 1
		}
		w := e.epi.Positives(d.ID, epiDay) * installedShare * ramp
		weights[i] = w
		lambda += w
	}
	if lambda <= 0 {
		return out
	}
	n := poisson(e.rng, lambda)
	for k := 0; k < n; k++ {
		x := e.rng.Float64() * lambda
		var acc float64
		for i, w := range weights {
			acc += w
			if x < acc && len(e.shards[i].devIDs) > 0 {
				ids := e.shards[i].devIDs
				out[ids[e.rng.Intn(len(ids))]] = true
				break
			}
		}
	}
	return out
}

// websiteVisits generates one district's general-population website
// exchanges, including the two small local effects the paper reports: a
// "very slight and hardly noticeable" increase in Gütersloh after its
// June-23 lockdown, and a Berlin June-18 signal that is "only visible for
// users of a single ISP" (modelled as extra interest from one regional
// ISP's customers).
func (e *engine) websiteVisits(s *shard, day time.Time, events []event) ([]event, error) {
	d := s.district
	rng := s.genRNG
	for h := 0; h < 24; h++ {
		at := day.Add(time.Duration(h) * time.Hour)
		att := e.attention.At(at)
		diurnal := adoption.Diurnal(h)
		rate := e.cfg.WebVisitorsPerHourPer100k * float64(d.Population) / 100000 *
			att * diurnal / float64(e.cfg.Scale)
		rate *= e.localBoost(d, at)
		n := poisson(rng, rate)
		for v := 0; v < n; v++ {
			addr, err := e.webClient(s)
			if err != nil {
				return events, err
			}
			s.label(addr.Addr, LabelWeb)
			events = append(events, event{
				t:          at.Add(time.Duration(rng.Intn(3600)) * time.Second),
				client:     addr,
				clientHash: uint64(s.idx)*7919 + uint64(v),
				req:        cdn.Request{Type: cdn.ReqWebsite},
			})
		}
		// Berlin/RegioNet: the single-ISP local effect. The pulse
		// is sized against RegioNet's small Berlin customer base
		// (6% market share), so it roughly doubles that ISP's
		// Berlin traffic while moving the district total by only
		// a few percent — "only visible for users of a single
		// ISP and not in the overall traffic".
		if d.Name == "Berlin" && !at.Before(entime.OutbreakBerlin) {
			decay := math.Exp(-at.Sub(entime.OutbreakBerlin).Hours() / 24 / 2.5)
			extra := rate * 2.0 * decay
			for v := poisson(rng, extra); v > 0; v-- {
				addr, err := e.berlinRegioClient(s)
				if err != nil {
					return events, err
				}
				s.label(addr.Addr, LabelWeb)
				events = append(events, event{
					t:          at.Add(time.Duration(rng.Intn(3600)) * time.Second),
					client:     addr,
					clientHash: 0xBE ^ uint64(v),
					req:        cdn.Request{Type: cdn.ReqWebsite},
				})
			}
		}
	}
	return events, nil
}

// localBoost is the district-level interest multiplier: Gütersloh (and a
// weaker echo in Warendorf) after the June-23 lockdown announcement.
func (e *engine) localBoost(d geo.District, at time.Time) float64 {
	if at.Before(entime.OutbreakGuetersloh) {
		return 1
	}
	switch d.Name {
	case "Gütersloh":
		return 1.45
	case "Warendorf":
		return 1.20
	default:
		return 1
	}
}

// berlinRegioClient returns a Berlin client pinned to the RegioNet ISP so
// the June-18 effect is confined to one provider. Only the Berlin shard
// calls this, so the pool needs no locking.
func (e *engine) berlinRegioClient(s *shard) (netsim.ClientAddr, error) {
	if len(s.regioPool) < 24 {
		isps := e.network.ISPs()
		regio := isps[len(isps)-1] // RegioNet is last in the default mix
		addr, err := e.network.Attach(regio, "BE-000")
		if err != nil {
			return netsim.ClientAddr{}, err
		}
		s.regioPool = append(s.regioPool, addr)
		return addr, nil
	}
	return s.regioPool[s.genRNG.Intn(len(s.regioPool))], nil
}

// webClient returns a (possibly new) website-only client in the shard's
// district. New clients attach to the district's own routers, so shards
// never mutate each other's network state.
func (e *engine) webClient(s *shard) (netsim.ClientAddr, error) {
	const maxPool = 48
	rng := s.genRNG
	if len(s.webPool) < maxPool && (len(s.webPool) == 0 || rng.Float64() < 0.35) {
		isp := e.network.PickISP(rng)
		addr, err := e.network.Attach(isp, s.district.ID)
		if err != nil {
			return netsim.ClientAddr{}, err
		}
		s.webPool = append(s.webPool, addr)
		return addr, nil
	}
	return s.webPool[rng.Intn(len(s.webPool))], nil
}

// noiseEvents derives filter-exercising noise from real events: IPv6
// variants, non-443 ports, QUIC.
func (e *engine) noiseEvents(rng *rand.Rand, real []event) []event {
	n := len(real)
	for i := 0; i < n; i++ {
		if rng.Float64() >= e.cfg.NoiseFraction {
			continue
		}
		ev := real[i]
		ev.noise = 1 + rng.Intn(3)
		ev.t = ev.t.Add(time.Duration(rng.Intn(30)) * time.Second)
		real = append(real, ev)
	}
	return real
}

// performUpload executes the real verification + submission flow against
// the backend and returns the upload payload size. It runs on the serial
// control plane and consumes the engine RNG.
func (e *engine) performUpload(keyCount int) (int, error) {
	now := e.clock.Now()
	token := e.backend.RegisterTest(cwaserver.ResultPositive, now.Add(-time.Hour))
	tan, err := e.backend.IssueTAN(token)
	if err != nil {
		return 0, fmt.Errorf("sim: issuing TAN: %w", err)
	}
	keys := make([]exposure.DiagnosisKey, keyCount)
	start := entime.IntervalOf(now).KeyPeriodStart()
	for i := range keys {
		e.rng.Read(keys[i].Key[:])
		keys[i].RollingStart = start.Add(-(keyCount - 1 - i) * entime.EKRollingPeriod)
		keys[i].RollingPeriod = entime.EKRollingPeriod
		keys[i].TransmissionRiskLevel = uint8(1 + e.rng.Intn(8))
	}
	payload, err := cwaserver.EncodeUpload(keys)
	if err != nil {
		return 0, err
	}
	if err := e.backend.SubmitKeys(tan, keys); err != nil {
		return 0, fmt.Errorf("sim: submitting keys: %w", err)
	}
	return len(payload), nil
}

// emitExchange synthesizes the packet exchange of one HTTPS transaction and
// runs it through the client's router in both directions. Only the
// downstream (CDN->user) direction survives the measurement filters; the
// upstream flow exists so the direction filter has something to drop, as in
// the raw capture.
func (e *engine) emitExchange(s *shard, ev *event) {
	cache := s.cacheFor(ev.client.RouterID, e.cfg.Netflow, e.cfg.Seed)
	rng := s.emitRNG
	clientPort := uint16(49152 + rng.Intn(16000))

	down := e.traffic.DownstreamPackets(ev.respBytes)
	up := e.traffic.UpstreamPackets(ev.respBytes)
	upBytes := e.traffic.UpstreamRequestBytes + ev.upstreamExtra + up*60

	// The exchange spreads over a few hundred milliseconds to ~2 s.
	dur := time.Duration(200+rng.Intn(1800)) * time.Millisecond
	e.spread(s, cache, ev.t, dur, down, ev.respBytes, ev.edge, ev.client.Addr, netflow.PortHTTPS, clientPort)
	e.spread(s, cache, ev.t, dur, up, upBytes, ev.client.Addr, ev.edge, clientPort, netflow.PortHTTPS)
}

// spread feeds pkts packets of totalBytes through a cache across dur,
// ingesting any records the cache exports along the way (evictions,
// active-timeout splits).
func (e *engine) spread(s *shard, c *netflow.Cache, start time.Time, dur time.Duration, pkts, totalBytes int, src, dst netip.Addr, sport, dport uint16) {
	if pkts <= 0 {
		return
	}
	per := totalBytes / pkts
	if per < 60 {
		per = 60
	}
	step := dur / time.Duration(pkts)
	for i := 0; i < pkts; i++ {
		recs := c.Observe(netflow.Packet{
			Time:    start.Add(time.Duration(i) * step),
			Src:     src,
			Dst:     dst,
			SrcPort: sport,
			DstPort: dport,
			Proto:   netflow.ProtoTCP,
			Bytes:   per,
		})
		if len(recs) > 0 {
			s.sink.Ingest(recs)
			netflow.RecycleBatch(recs)
		}
	}
}

// drainAll flushes every shard's caches at the end of the capture, in shard
// order so the collector's merge stays deterministic.
func (e *engine) drainAll() {
	for _, s := range e.shards {
		s.drain()
	}
}

// emitNoise generates the artifacts the measurement filters must drop.
func (e *engine) emitNoise(s *shard, ev *event) {
	cache := s.cacheFor(ev.client.RouterID, e.cfg.Netflow, e.cfg.Seed)
	rng := s.emitRNG
	now := ev.t
	observe := func(p netflow.Packet) {
		if recs := cache.Observe(p); len(recs) > 0 {
			s.sink.Ingest(recs)
			netflow.RecycleBatch(recs)
		}
	}
	switch ev.noise {
	case 1: // IPv6 HTTPS flow (dropped: IPv4-only study)
		src := v6For(ev.client.Addr)
		dst := netip.MustParseAddr("2001:db8:ffff::10")
		for i := 0; i < 6; i++ {
			observe(netflow.Packet{
				Time: now.Add(time.Duration(i*50) * time.Millisecond),
				Src:  dst, Dst: src,
				SrcPort: 443, DstPort: uint16(50000 + rng.Intn(1000)),
				Proto: netflow.ProtoTCP, Bytes: 1200,
			})
		}
	case 2: // plain HTTP to the hosting prefix (dropped: not 443)
		for i := 0; i < 4; i++ {
			observe(netflow.Packet{
				Time: now.Add(time.Duration(i*50) * time.Millisecond),
				Src:  netsim.CDNAddr(0), Dst: ev.client.Addr,
				SrcPort: 80, DstPort: uint16(50000 + rng.Intn(1000)),
				Proto: netflow.ProtoTCP, Bytes: 600,
			})
		}
	case 3: // QUIC (dropped: not TCP)
		for i := 0; i < 5; i++ {
			observe(netflow.Packet{
				Time: now.Add(time.Duration(i*40) * time.Millisecond),
				Src:  netsim.CDNAddr(1), Dst: ev.client.Addr,
				SrcPort: 443, DstPort: uint16(50000 + rng.Intn(1000)),
				Proto: netflow.ProtoUDP, Bytes: 1250,
			})
		}
	}
}

// v6For derives a deterministic IPv6 counterpart of an IPv4 client.
func v6For(v4 netip.Addr) netip.Addr {
	b := v4.As4()
	return netip.AddrFrom16([16]byte{
		0x20, 0x01, 0x0d, 0xb8, 0, 1, 0, 0, 0, 0, 0, 0, b[0], b[1], b[2], b[3],
	})
}

// poisson draws from Poisson(lambda) via Knuth's method for small lambda
// and a normal approximation above.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
