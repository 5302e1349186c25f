package main

import (
	"mogis/internal/moft"
	"mogis/internal/pietql"
	"mogis/internal/server"
	"mogis/internal/telemetry"
	gen "mogis/internal/workload"
)

// The synthetic city every workload serves: 8×8 blocks (64
// neighbourhood polygons) and 4000 objects sampled 60 times each.
const (
	cityGrid    = 8
	cityObjects = 4000
	table       = "FM"
)

// citySeed is the SystemConfig.Seed of every run, so every run serves
// the same city; --seed draws the moving objects instead. The cost of
// each MO shape follows the city: raw city seeds make the geo part
// select 0 to 7 neighbourhoods, and the grouped shapes' cost grows
// about linearly with the samples inside them. Across cities holding
// the same neighbourhood count and sample count, the interactive round
// still moved 15-19% between seeds, against 3-9% for one city. This
// city's geo part selects 3 neighbourhoods, the modal count over city
// seeds, holding about 16,000 of the 240,000 samples, near the median.
const citySeed = 2068675588

// The Section-5 paper query's geo part: neighbourhoods crossed by the
// river that contain a store.
const geoPart = `SELECT layer.Lr, layer.Ln, layer.Lstores;
FROM PietSchema;
WHERE intersection(layer.Lr, layer.Ln, subplevel.Linestring)
AND (layer.Ln)
CONTAINS (layer.Ln, layer.Lstores, subplevel.Point);`

const (
	mdxPart = `SELECT {[Measures].[population]} ON COLUMNS, {[place].[neighborhood].Members} ON ROWS FROM [CityCube]`
	moPart  = `MOVING COUNT(*) FROM FM WHERE PASSES THROUGH layer.Ln`
	// narrowWindow is a 15-minute window inside the table's hour, so
	// the grid's temporal index engages.
	narrowWindow = ` DURING '2006-01-09 06:10' TO '2006-01-09 06:25'`
	// extentWindow is the table's original time extent. Ingested
	// continuation samples fall after it, so only the new objects a
	// batch places inside a queried polygon change this count.
	extentWindow = ` DURING '2006-01-09 06:00' TO '2006-01-09 06:59'`
)

// shape is one query of a round.
type shape struct {
	name string
	text string
	// perHour, set on a GROUP BY hour shape, gives the same query
	// without the grouping, restricted by the DURING clause it is
	// passed. The oracle derives the grouped answer from it one hour
	// at a time, without the grouping code it checks.
	perHour func(during string) string
}

// grouped builds the GROUP BY hour form of the plain (or SAMPLED ONLY)
// MO query.
func grouped(name string, sampled bool) shape {
	mo := func(during string) string {
		q := geoPart + " | | " + moPart + during
		if sampled {
			q += " SAMPLED ONLY"
		}
		return q
	}
	return shape{name: name, text: mo("") + " GROUP BY hour", perHour: mo}
}

// workload is one traffic mix.
type workload struct {
	name string
	// round is the query list one client sends in order.
	round []shape
	// clients is the number of closed-loop query clients.
	clients int
	// feeder adds the open-loop /ingest feeder beside the clients.
	feeder bool
}

// visibleShape is the query that detects ingested batches: the plain
// MO count over the original extent. It is the whole ingest-mix round
// and the follow-up query of the ingest probe on the other workloads.
var visibleShape = shape{name: "plain_extent", text: geoPart + " | | " + moPart + extentWindow}

var workloads = map[string]workload{
	"interactive": {name: "interactive", clients: 2, round: []shape{
		{name: "geo", text: geoPart},
		{name: "geo_mdx", text: geoPart + " | " + mdxPart},
		{name: "plain", text: geoPart + " | | " + moPart},
		{name: "windowed_mdx", text: geoPart + " | " + mdxPart + " | " + moPart + narrowWindow},
		{name: "sampled", text: geoPart + " | | " + moPart + " SAMPLED ONLY"},
		{name: "sampled_window", text: geoPart + " | | " + moPart + narrowWindow + " SAMPLED ONLY"},
	}},
	"groupby": {name: "groupby", clients: 2, round: []shape{
		{name: "plain", text: geoPart + " | | " + moPart},
		grouped("grouped", false),
		{name: "sampled", text: geoPart + " | | " + moPart + " SAMPLED ONLY"},
		grouped("sampled_grouped", true),
	}},
	"ingest-mix": {name: "ingest-mix", clients: 1, feeder: true, round: []shape{visibleShape}},
}

// systemConfig is the daemon's bootstrap configuration.
func systemConfig(overlay bool, tel *telemetry.Collector) server.SystemConfig {
	return server.SystemConfig{
		City: true, Grid: cityGrid, Objects: cityObjects, Seed: citySeed,
		Overlay: overlay, Telemetry: tel,
	}
}

// objects generates the table --seed selects, with the generator
// NewSystem uses, over the city's extent.
func objects(seed int64) *moft.Table {
	city := gen.GenCity(gen.CityConfig{Seed: citySeed, Cols: cityGrid, Rows: cityGrid})
	return gen.GenTrajectories(city.Extent, gen.TrajConfig{Seed: seed, Objects: cityObjects})
}

// loadObjects replaces the bootstrap's table with fm, the way /ingest
// installs a new table version.
func loadObjects(sys *pietql.System, fm *moft.Table) {
	sys.Ctx.AddTable(fm)
	sys.Engine.InvalidateTrajectories(table)
}

// newScanSystem builds the oracle's System: the same city and table,
// but every accelerated path off — naive geometry instead of the
// overlay, no sample grid, no interval cache, one worker.
func newScanSystem(seed int64, tel *telemetry.Collector) (*pietql.System, error) {
	sys, err := server.NewSystem(systemConfig(false, tel))
	if err != nil {
		return nil, err
	}
	loadObjects(sys, objects(seed))
	sys.Engine.SetAggGrid(-1)
	sys.Engine.SetIntervalCacheCap(0)
	sys.Engine.SetWorkers(1)
	return sys, nil
}
