package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"poiagg/internal/attack"
	"poiagg/internal/citygen"
	"poiagg/internal/geo"
	"poiagg/internal/gsp"
)

var (
	wireOnce sync.Once
	wireCity *citygen.City
	wireSvc  *gsp.Service
)

func wireFixture(t testing.TB) (*citygen.City, *gsp.Service) {
	t.Helper()
	wireOnce.Do(func() {
		p := citygen.Beijing(31)
		p.NumPOIs = 2000
		p.NumTypes = 60
		p.Width, p.Height = 12_000, 12_000
		city, err := citygen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		wireCity = city
		wireSvc = gsp.NewService(city.City, 1<<14)
	})
	return wireCity, wireSvc
}

func newGSPTestServer(t testing.TB, opts ...ServerOption) (*httptest.Server, *GSPClient) {
	t.Helper()
	_, svc := wireFixture(t)
	opts = append(opts, WithLogger(log.New(io.Discard, "", 0)))
	ts := httptest.NewServer(NewGSPServer(svc, opts...))
	t.Cleanup(ts.Close)
	return ts, NewGSPClient(ts.URL, ts.Client())
}

func TestGSPStatsOverWire(t *testing.T) {
	city, _ := wireFixture(t)
	_, client := newGSPTestServer(t)
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Name != city.Name || stats.NumPOIs != city.NumPOIs() || stats.NumTypes != city.M() {
		t.Errorf("stats = %+v", stats)
	}
	if len(stats.Types) != city.M() {
		t.Errorf("types = %d", len(stats.Types))
	}
}

func TestGSPFreqMatchesLocal(t *testing.T) {
	city, svc := wireFixture(t)
	_, client := newGSPTestServer(t)
	ctx := context.Background()
	for _, l := range city.RandomLocations(20, 32) {
		remote, err := client.Freq(ctx, l, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if !remote.Equal(svc.Freq(l, 1000)) {
			t.Fatalf("remote Freq diverges at %v", l)
		}
	}
}

func TestGSPQueryMatchesLocal(t *testing.T) {
	city, svc := wireFixture(t)
	_, client := newGSPTestServer(t)
	l := city.RandomLocations(1, 33)[0]
	remote, err := client.Query(context.Background(), l, 800)
	if err != nil {
		t.Fatal(err)
	}
	local := svc.Query(l, 800)
	if len(remote) != len(local) {
		t.Fatalf("remote %d POIs vs local %d", len(remote), len(local))
	}
}

func TestGSPValidation(t *testing.T) {
	ts, client := newGSPTestServer(t, WithMaxRadius(2000))
	ctx := context.Background()
	if _, err := client.Freq(ctx, geo.Point{}, 5000); !errors.Is(err, ErrBadRequest) {
		t.Errorf("oversized radius: %v", err)
	}
	if _, err := client.Freq(ctx, geo.Point{}, -5); !errors.Is(err, ErrBadRequest) {
		t.Errorf("negative radius: %v", err)
	}
	// Raw malformed query.
	resp, err := http.Get(ts.URL + PathFreq + "?x=abc&y=0&r=100")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed x gave %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Post(ts.URL+PathFreq, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST to freq gave %d", resp.StatusCode)
	}
}

func TestGSPClientContextCancel(t *testing.T) {
	_, client := newGSPTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Stats(ctx); err == nil {
		t.Error("cancelled context succeeded")
	}
}

func TestGSPConcurrentClients(t *testing.T) {
	city, _ := wireFixture(t)
	_, client := newGSPTestServer(t)
	locs := city.RandomLocations(40, 34)
	var wg sync.WaitGroup
	errs := make(chan error, len(locs))
	for _, l := range locs {
		wg.Add(1)
		go func(l geo.Point) {
			defer wg.Done()
			if _, err := client.Freq(context.Background(), l, 700); err != nil {
				errs <- err
			}
		}(l)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// newGatewayTestServer serves a quiet cluster gateway over one shard.
func newGatewayTestServer(t testing.TB, peer string, opts ...ServerOption) (*httptest.Server, *ClusterGateway) {
	t.Helper()
	gw, err := NewClusterGateway([]string{peer}, append(opts, WithLogger(discardLogger()))...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(ts.Close)
	return ts, gw
}

func newLBSTestServer(t testing.TB, opts ...ServerOption) (*httptest.Server, *LBSClient) {
	t.Helper()
	city, _ := wireFixture(t)
	ts := httptest.NewServer(NewLBSServer(city.M(), opts...))
	t.Cleanup(ts.Close)
	return ts, NewLBSClient(ts.URL, ts.Client())
}

func TestLBSReleaseAndHistory(t *testing.T) {
	city, svc := wireFixture(t)
	_, client := newLBSTestServer(t)
	ctx := context.Background()
	l := city.RandomLocations(1, 35)[0]
	rel := ReleaseRequest{
		UserID: "alice",
		Freq:   svc.Freq(l, 900),
		R:      900,
		Time:   time.Date(2021, 3, 1, 9, 0, 0, 0, time.UTC),
	}
	resp, err := client.Release(ctx, rel)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted || resp.Audited {
		t.Errorf("resp = %+v", resp)
	}
	hist, err := client.Releases(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Releases) != 1 || !hist.Releases[0].Freq.Equal(rel.Freq) {
		t.Errorf("history = %+v", hist)
	}
	empty, err := client.Releases(ctx, "nobody")
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Releases) != 0 {
		t.Errorf("unknown user has history: %+v", empty)
	}
}

func TestLBSValidation(t *testing.T) {
	city, svc := wireFixture(t)
	ts, client := newLBSTestServer(t)
	ctx := context.Background()
	l := city.RandomLocations(1, 36)[0]
	good := svc.Freq(l, 900)

	cases := []ReleaseRequest{
		{UserID: "", Freq: good, R: 900},                                    // missing user
		{UserID: "bob", Freq: good[:3], R: 900},                             // wrong dim
		{UserID: "bob", Freq: good, R: 0},                                   // bad radius
		{UserID: "bob", Freq: append(good.Clone(), -1)[:len(good)], R: 900}, // negative entry
	}
	cases[3].Freq[0] = -1
	for i, rel := range cases {
		if _, err := client.Release(ctx, rel); !errors.Is(err, ErrBadRequest) {
			t.Errorf("case %d: %v", i, err)
		}
	}
	// Garbage body.
	resp, err := http.Post(ts.URL+PathRelease, "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body gave %d", resp.StatusCode)
	}
	// Missing user on history endpoint.
	resp, err = http.Get(ts.URL + PathReleases)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing user gave %d", resp.StatusCode)
	}
}

func TestLBSHistoryLimit(t *testing.T) {
	city, svc := wireFixture(t)
	_, client := newLBSTestServer(t, WithHistoryLimit(3))
	ctx := context.Background()
	l := city.RandomLocations(1, 37)[0]
	f := svc.Freq(l, 900)
	for i := 0; i < 5; i++ {
		if _, err := client.Release(ctx, ReleaseRequest{UserID: "carol", Freq: f, R: 900}); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := client.Releases(ctx, "carol")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Releases) != 3 {
		t.Errorf("history kept %d releases, want 3", len(hist.Releases))
	}
}

func TestEndToEndUserFlowWithAudit(t *testing.T) {
	// The full Fig. 1 loop over real HTTP: the user asks the GSP for its
	// aggregate, releases it to the LBS app, and the app (the adversary
	// of the threat model) audits it with the region attack.
	city, svc := wireFixture(t)
	_, gspClient := newGSPTestServer(t)
	_, lbsClient := newLBSTestServer(t, WithAuditor(RegionAuditor{Svc: svc}))
	ctx := context.Background()

	reIdentified := 0
	locs := city.RandomLocations(30, 38)
	for i, l := range locs {
		f, err := gspClient.Freq(ctx, l, 1000)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := lbsClient.Release(ctx, ReleaseRequest{
			UserID: "user-" + string(rune('a'+i%26)),
			Freq:   f,
			R:      1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Audited {
			t.Fatal("auditor did not run")
		}
		if resp.ReIdentified {
			reIdentified++
			if resp.CandidateCount != 1 {
				t.Errorf("re-identified with %d candidates", resp.CandidateCount)
			}
		}
	}
	if reIdentified == 0 {
		t.Error("audit never re-identified a raw release; uniqueness missing")
	}
}

func TestRegionAuditorMatchesAttack(t *testing.T) {
	city, svc := wireFixture(t)
	auditor := RegionAuditor{Svc: svc}
	for _, l := range city.RandomLocations(20, 39) {
		f := svc.Freq(l, 800)
		gotRe, gotN := auditor.Audit(f, 800)
		res := attack.Region(svc, f, 800)
		if gotRe != res.Success || gotN != len(res.Candidates) {
			t.Fatalf("auditor (%v, %d) vs attack (%v, %d)",
				gotRe, gotN, res.Success, len(res.Candidates))
		}
	}
}

func TestFetchCityAndAttackOverWire(t *testing.T) {
	// The adversary acquires its prior knowledge purely over HTTP and
	// mounts the attack against releases it observes; results must match
	// the local attack exactly.
	city, svc := wireFixture(t)
	_, client := newGSPTestServer(t)
	ctx := context.Background()

	remoteCity, err := FetchCity(ctx, client)
	if err != nil {
		t.Fatal(err)
	}
	if remoteCity.NumPOIs() != city.NumPOIs() || remoteCity.M() != city.M() {
		t.Fatalf("fetched city: %d POIs / %d types", remoteCity.NumPOIs(), remoteCity.M())
	}
	remoteSvc := gsp.NewService(remoteCity, 1<<14)
	for _, l := range city.RandomLocations(25, 40) {
		f := svc.Freq(l, 900)
		local := attack.Region(svc, f, 900)
		remote := attack.Region(remoteSvc, f, 900)
		if local.Success != remote.Success || len(local.Candidates) != len(remote.Candidates) {
			t.Fatalf("attack diverges over the wire at %v: local (%v,%d) remote (%v,%d)",
				l, local.Success, len(local.Candidates), remote.Success, len(remote.Candidates))
		}
		if local.Success && local.Anchor.ID != remote.Anchor.ID {
			t.Fatalf("different anchors: %v vs %v", local.Anchor, remote.Anchor)
		}
	}
}

func TestPOIsDump(t *testing.T) {
	city, _ := wireFixture(t)
	_, client := newGSPTestServer(t)
	pois, err := client.POIs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(pois) != city.NumPOIs() {
		t.Errorf("dump has %d POIs, want %d", len(pois), city.NumPOIs())
	}
}

func TestGSPServerLogsRequests(t *testing.T) {
	_, svc := wireFixture(t)
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	ts := httptest.NewServer(NewGSPServer(svc, WithLogger(logger)))
	defer ts.Close()
	resp, err := http.Get(ts.URL + PathStats)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + PathFreq + "?x=abc&y=0&r=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	out := buf.String()
	if !strings.Contains(out, "GET "+PathStats+" 200") {
		t.Errorf("missing 200 log line:\n%s", out)
	}
	if !strings.Contains(out, "GET "+PathFreq+" 400") {
		t.Errorf("missing 400 log line:\n%s", out)
	}
}
