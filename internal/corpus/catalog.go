// Package corpus defines the data model for company IT install bases: the
// product-category catalog, companies with timestamped product acquisitions,
// and the corpus-level views the models consume (binary company-product
// matrix, TF-IDF weights, time-ordered product sequences, train/valid/test
// splits). It also implements the D-U-N-S site aggregation step the paper
// performs during data integration.
package corpus

import "fmt"

// Group classifies a product category as hardware or software, mirroring the
// paper's restriction to "hardware and low-level hardware management
// software" categories. The grouping is used by the data generator's topic
// priors and to sanity-check the t-SNE projections (hardware categories
// should co-locate, as in the paper's Figures 8-9).
type Group int

const (
	Hardware Group = iota
	Software
)

// String returns "hardware" or "software".
func (g Group) String() string {
	if g == Hardware {
		return "hardware"
	}
	return "software"
}

// Category describes one product category (the paper's vocabulary items).
type Category struct {
	ID     int    // dense index in [0, M)
	Name   string // short name as used in the paper's Figures 8-9
	Parent string // category parent, e.g. "Data Center Solution"
	Group  Group
}

// Catalog is the ordered set of product categories. The paper uses M = 38
// hardware and low-level-software categories out of HG Data's 91.
type Catalog struct {
	Categories []Category
	byName     map[string]int
}

// NewCatalog builds a catalog from a category list, indexing names.
func NewCatalog(cats []Category) *Catalog {
	c := &Catalog{Categories: cats, byName: make(map[string]int, len(cats))}
	for i := range c.Categories {
		c.Categories[i].ID = i
		c.byName[c.Categories[i].Name] = i
	}
	return c
}

// Size returns the number of categories M.
func (c *Catalog) Size() int { return len(c.Categories) }

// Name returns the name of category id.
func (c *Catalog) Name(id int) string { return c.Categories[id].Name }

// IDByName returns the category id for name, or -1 when unknown.
func (c *Catalog) IDByName(name string) int {
	if id, ok := c.byName[name]; ok {
		return id
	}
	return -1
}

// MustID returns the category id for name and panics when unknown.
func (c *Catalog) MustID(name string) int {
	id := c.IDByName(name)
	if id < 0 {
		panic(fmt.Sprintf("corpus: unknown category %q", name))
	}
	return id
}

// DefaultCatalog returns the 38 product categories used in the paper,
// with names taken verbatim from the paper's Figures 8-9 and category
// parents/groups assigned from HG Data's public taxonomy naming.
func DefaultCatalog() *Catalog {
	const (
		dcs = "Data Center Solution"
		hwb = "Hardware (Basic)"
		sw  = "Software (Infrastructure)"
		app = "Applications"
	)
	return NewCatalog([]Category{
		{Name: "asset_performance", Parent: app, Group: Software},
		{Name: "cloud_infrastructure", Parent: dcs, Group: Software},
		{Name: "collaboration", Parent: app, Group: Software},
		{Name: "commerce", Parent: app, Group: Software},
		{Name: "communication_tech", Parent: hwb, Group: Hardware},
		{Name: "electronics_PCs_SW", Parent: app, Group: Software},
		{Name: "contact_center", Parent: app, Group: Software},
		{Name: "data_archiving", Parent: dcs, Group: Software},
		{Name: "storage_HW", Parent: hwb, Group: Hardware},
		{Name: "DBMS", Parent: sw, Group: Software},
		{Name: "disaster_recovery", Parent: dcs, Group: Software},
		{Name: "document_management", Parent: app, Group: Software},
		{Name: "financial_apps", Parent: app, Group: Software},
		{Name: "HR_human_management", Parent: app, Group: Software},
		{Name: "HW_other", Parent: hwb, Group: Hardware},
		{Name: "hypervisor", Parent: sw, Group: Software},
		{Name: "IT_infrastructure", Parent: dcs, Group: Hardware},
		{Name: "mainframs", Parent: hwb, Group: Hardware},
		{Name: "media", Parent: app, Group: Software},
		{Name: "midrange", Parent: hwb, Group: Hardware},
		{Name: "mobile_tech", Parent: hwb, Group: Hardware},
		{Name: "network_HW", Parent: hwb, Group: Hardware},
		{Name: "network_SW", Parent: sw, Group: Software},
		{Name: "OS", Parent: sw, Group: Software},
		{Name: "platform_as_a_service", Parent: dcs, Group: Software},
		{Name: "printers", Parent: hwb, Group: Hardware},
		{Name: "product_lifecycle", Parent: app, Group: Software},
		{Name: "remote", Parent: sw, Group: Software},
		{Name: "retail", Parent: app, Group: Software},
		{Name: "search_engine", Parent: app, Group: Software},
		{Name: "security_management", Parent: sw, Group: Software},
		{Name: "server_HW", Parent: hwb, Group: Hardware},
		{Name: "server_SW", Parent: sw, Group: Software},
		{Name: "system_security_services", Parent: sw, Group: Software},
		{Name: "telephony", Parent: hwb, Group: Hardware},
		{Name: "virtualization_apps", Parent: sw, Group: Software},
		{Name: "virtualization_platform", Parent: sw, Group: Software},
		{Name: "virtualization_server", Parent: dcs, Group: Software},
	})
}

// SIC2Industries lists synthetic two-digit Standard Industrial
// Classification divisions. The paper's corpus spans 83 SIC2 industries;
// we enumerate the standard SIC major-group range 01-89 minus gaps,
// yielding 83 codes with representative labels for the common ones.
func SIC2Industries() []Industry {
	named := map[int]string{
		1:  "Agricultural Services",
		15: "Building Construction",
		20: "Food Products",
		28: "Chemicals",
		35: "Industrial Machinery",
		36: "Electronic Equipment",
		48: "Communications",
		49: "Utilities",
		52: "Retail - Building Materials",
		60: "Depository Institutions",
		63: "Insurance Carriers",
		73: "Business Services",
		80: "Health Services",
		82: "Educational Services",
	}
	var out []Industry
	for code := 1; code <= 89 && len(out) < 83; code++ {
		switch code { // gaps in the SIC major-group numbering
		case 3, 4, 5, 6, 11, 18:
			continue
		}
		name := named[code]
		if name == "" {
			name = fmt.Sprintf("SIC division %02d", code)
		}
		out = append(out, Industry{SIC2: code, Name: name})
	}
	return out
}

// Industry is a two-digit SIC industry division.
type Industry struct {
	SIC2 int
	Name string
}
