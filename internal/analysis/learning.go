package analysis

import (
	"fmt"
	"sort"
	"strings"

	"scarecrow/internal/core"
	"scarecrow/internal/malgene"
	"scarecrow/internal/malware"
	"scarecrow/internal/trace"
)

// SignatureSurvey is the §II-C learning pipeline run at corpus scale:
// every sample that behaves differently between the clean reference and an
// analysis rig contributes one MalGene evasion signature.
type SignatureSurvey struct {
	Samples int
	// Extracted counts samples that yielded a signature.
	Extracted int
	// ByKind histograms the signature event kinds.
	ByKind map[string]int
	// ByAPI histograms APICall signatures by probed API.
	ByAPI map[string]int
	// Learned counts signatures that fold into the deception database as
	// new resources (API-probe signatures need no new resource — the
	// hooks already cover those APIs).
	Learned int
}

// String renders the survey.
func (s SignatureSurvey) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "signature survey: %d samples, %d signatures extracted, %d fold into the resource DB\n",
		s.Samples, s.Extracted, s.Learned)
	kinds := make([]string, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&sb, "  %-16s %d\n", k, s.ByKind[k])
	}
	apis := make([]string, 0, len(s.ByAPI))
	for a := range s.ByAPI {
		apis = append(apis, a)
	}
	sort.Strings(apis)
	for _, a := range apis {
		fmt.Fprintf(&sb, "  api probe: %-28s %d\n", a, s.ByAPI[a])
	}
	return sb.String()
}

// SurveySignatures runs each sample on the clean reference and on the
// analysis rigs, aligns every diverging trace pair, and aggregates the
// extracted evasion signatures — reproducing how the paper proposes to
// keep the deception database current.
func SurveySignatures(samples []*malware.Specimen, seed int64) (SignatureSurvey, error) {
	survey := SignatureSurvey{
		Samples: len(samples),
		ByKind:  make(map[string]int),
		ByAPI:   make(map[string]int),
	}
	db := core.NewDB()
	rigs := analysisRigs()
	for i, s := range samples {
		var exposed, evaded []trace.Event
		if _, err := runOnRig(nil, s, seed+int64(i), &exposed); err != nil {
			return SignatureSurvey{}, err
		}
		var sig malgene.Signature
		found := false
		for _, rig := range rigs {
			if _, err := runOnRig(&rig, s, seed+int64(i), &evaded); err != nil {
				return SignatureSurvey{}, err
			}
			if got, ok := malgene.ExtractSignature(evaded, exposed); ok {
				sig, found = got, true
				break
			}
		}
		if !found {
			continue
		}
		survey.Extracted++
		survey.ByKind[sig.Kind.String()]++
		if sig.Kind == trace.KindAPICall {
			survey.ByAPI[sig.Resource]++
		}
		if sig.ExtendDB(db) {
			survey.Learned++
		}
	}
	return survey, nil
}
