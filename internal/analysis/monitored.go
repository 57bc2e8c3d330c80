package analysis

import (
	"encoding/json"
	"fmt"
	"runtime/debug"
	"time"

	"scarecrow/internal/deter"
	"scarecrow/internal/malware"
	"scarecrow/internal/winapi"
	"scarecrow/internal/winsim"
)

// MonitorOptions configures one monitored (deterrence-tier) run.
type MonitorOptions struct {
	// Action is the enforcement applied to a flagged payload (default
	// kill).
	Action deter.Action
	// Detector and Plant tune the online scorer and the canary layout;
	// zero values mean the package defaults.
	Detector deter.DetectorConfig
	Plant    deter.PlantConfig
	// ThrottleDelay overrides the per-call throttle delay.
	ThrottleDelay time.Duration
	// OnDetection streams detections as they fire (the /v1/monitor hook).
	// It runs inside the simulation's single goroutine.
	OnDetection func(deter.Detection)
}

// MonitoredResult is the outcome of one monitored run.
type MonitoredResult struct {
	Specimen *malware.Specimen
	Profile  winsim.ProfileName
	Seed     int64
	// Outcome is the deterrence verdict; Category restates it in verdict
	// terms: VerdictDeterred when enforcement fired, VerdictSurvived when
	// the payload ran out the window untouched, VerdictError on failure.
	Outcome  deter.Outcome
	Category VerdictCategory
	// VirtualTime is the machine clock at the end of the run.
	VirtualTime time.Duration
	// Err/Stack contain a contained failure, exactly like SampleResult.
	Err   error
	Stack string
}

// RunMonitoredSeeded executes one monitored run: the machine is seeded
// purely from seed (the lab term is cancelled, matching RunSampleSeeded),
// canaries are planted before launch, the deterrence monitor taps the
// live trace, and enforcement applies at API boundaries. Unlike the
// paired raw/protected runs, a monitored run is single-execution and is
// never cached — it exists to be streamed.
//
// Failures, including panics out of the simulation, are contained into
// the result's Err/Stack fields.
func (l *Lab) RunMonitoredSeeded(s *malware.Specimen, seed int64, opts MonitorOptions) (res MonitoredResult) {
	res = MonitoredResult{Specimen: s, Profile: l.Profile, Seed: seed, Category: VerdictError}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("analysis: monitored run of %s panicked: %v", s.ID, r)
			res.Stack = string(debug.Stack())
			res.Category = VerdictError
		}
	}()

	m := l.acquireMachine(seed)
	plan, err := deter.Plant(m, opts.Plant)
	if err != nil {
		res.Err = err
		return res
	}
	sys := winapi.NewSystem(m)
	mon := deter.NewMonitor(m, plan, deter.MonitorConfig{
		Action:        opts.Action,
		Detector:      opts.Detector,
		ThrottleDelay: opts.ThrottleDelay,
		OnDetection:   opts.OnDetection,
	})
	// The recorder drops the tap when execute releases it.
	m.Tracer.Tap(mon.Observe)
	sys.Enforcer = mon.Enforce
	ex, err := execute(sys, specimenProgram(s), nil, nil, nil)
	if err != nil {
		res.Err = err
		return res
	}
	res.Outcome = mon.Outcome()
	res.VirtualTime = ex.VirtualTime
	res.Category = VerdictSurvived
	if res.Outcome.Deterred {
		res.Category = VerdictDeterred
	}
	return res
}

// MonitorDoc is the JSON wire form of a monitored run — the /v1/monitor
// final frame and the scarebench -monitor row.
type MonitorDoc struct {
	Specimen string `json:"specimen"`
	Family   string `json:"family"`
	Source   string `json:"source"`
	Profile  string `json:"profile"`
	Seed     int64  `json:"seed"`
	Category string `json:"category"`
	Action   string `json:"action"`

	Detected         bool  `json:"detected"`
	Deterred         bool  `json:"deterred"`
	TimeToDetectNS   int64 `json:"time_to_detect_ns"`
	EnforcedAtNS     int64 `json:"enforced_at_ns"`
	FilesLost        int   `json:"files_lost_before_kill"`
	CanariesPlanted  int   `json:"canaries_planted"`
	CanariesTouched  int   `json:"canaries_touched"`
	CanariesTampered int   `json:"canaries_tampered"`
	DetectionCount   int   `json:"detection_count"`
	VirtualNS        int64 `json:"virtual_ns"`

	Detections []deter.Detection `json:"detections,omitempty"`
	Error      string            `json:"error,omitempty"`
}

// Doc converts the result to its wire form.
func (r MonitoredResult) Doc() MonitorDoc {
	doc := MonitorDoc{
		Profile:  string(r.Profile),
		Seed:     r.Seed,
		Category: r.Category.String(),
		Action:   string(r.Outcome.Action),

		Detected:         r.Outcome.Detected,
		Deterred:         r.Outcome.Deterred,
		TimeToDetectNS:   int64(r.Outcome.TimeToDetect),
		EnforcedAtNS:     int64(r.Outcome.EnforcedAt),
		FilesLost:        r.Outcome.FilesLost,
		CanariesPlanted:  r.Outcome.CanariesPlanted,
		CanariesTouched:  r.Outcome.CanariesTouched,
		CanariesTampered: r.Outcome.CanariesTampered,
		DetectionCount:   len(r.Outcome.Detections),
		VirtualNS:        int64(r.VirtualTime),
		Detections:       r.Outcome.Detections,
	}
	if r.Specimen != nil {
		doc.Specimen = r.Specimen.ID
		doc.Family = r.Specimen.Family
		doc.Source = string(r.Specimen.Source)
	}
	if r.Err != nil {
		doc.Error = r.Err.Error()
	}
	return doc
}

// Marshal renders the doc as JSON. Monitored runs are streamed, not
// cached, so this takes the plain encoding/json path rather than the
// pooled verdict marshaller.
func (d MonitorDoc) Marshal() ([]byte, error) { return json.Marshal(d) }
