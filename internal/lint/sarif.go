package lint

import (
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
)

// SARIF renders findings as a SARIF 2.1.0 log — the interchange format CI
// systems ingest for code-scanning annotations. File URIs are relativized
// against root under the standard %SRCROOT% base so the log is stable
// across checkouts.
func SARIF(root string, rules []Rule, findings []Finding) ([]byte, error) {
	type sMessage struct {
		Text string `json:"text"`
	}
	type sRule struct {
		ID               string   `json:"id"`
		ShortDescription sMessage `json:"shortDescription"`
	}
	type sArtifact struct {
		URI       string `json:"uri"`
		URIBaseID string `json:"uriBaseId"`
	}
	type sRegion struct {
		StartLine   int `json:"startLine"`
		StartColumn int `json:"startColumn,omitempty"`
	}
	type sPhysical struct {
		ArtifactLocation sArtifact `json:"artifactLocation"`
		Region           sRegion   `json:"region"`
	}
	type sLocation struct {
		PhysicalLocation sPhysical `json:"physicalLocation"`
	}
	type sResult struct {
		RuleID    string      `json:"ruleId"`
		Level     string      `json:"level"`
		Message   sMessage    `json:"message"`
		Locations []sLocation `json:"locations"`
	}
	type sDriver struct {
		Name           string  `json:"name"`
		InformationURI string  `json:"informationUri,omitempty"`
		Rules          []sRule `json:"rules"`
	}
	type sTool struct {
		Driver sDriver `json:"driver"`
	}
	type sRun struct {
		Tool    sTool     `json:"tool"`
		Results []sResult `json:"results"`
	}
	type sLog struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []sRun `json:"runs"`
	}

	var srules []sRule
	for _, r := range rules {
		srules = append(srules, sRule{
			ID:               r.Analyzer.Name,
			ShortDescription: sMessage{Text: r.Analyzer.Doc},
		})
	}
	sort.Slice(srules, func(i, j int) bool { return srules[i].ID < srules[j].ID })

	results := make([]sResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sMessage{Text: f.Message},
			Locations: []sLocation{{PhysicalLocation: sPhysical{
				ArtifactLocation: sArtifact{URI: relTo(root, f.File), URIBaseID: "%SRCROOT%"},
				Region:           sRegion{StartLine: f.Line, StartColumn: f.Col},
			}}},
		})
	}

	log := sLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sRun{{
			Tool:    sTool{Driver: sDriver{Name: "kvet", Rules: srules}},
			Results: results,
		}},
	}
	return json.MarshalIndent(&log, "", "  ")
}

// relTo renders file relative to root with forward slashes, falling back
// to the input when it is not under root.
func relTo(root, file string) string {
	rel, err := filepath.Rel(root, file)
	if err != nil || rel == ".." || filepath.IsAbs(rel) || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return filepath.ToSlash(file)
	}
	return filepath.ToSlash(rel)
}
