package verify

// ReportJSON is the wire struct a Report's JSON encoder must reproduce.
type ReportJSON = reportJSON
