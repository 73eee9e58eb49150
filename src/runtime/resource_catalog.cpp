#include "runtime/resource_catalog.hpp"

namespace vgbl {

const ResourceCatalog& ResourceCatalog::default_pages() {
  static const ResourceCatalog pages = [] {
    ResourceCatalog c;
    c.add({"vgbl://wiki/power_supply", "Power supply unit",
           "Converts mains AC to low-voltage DC for the computer's components.",
           milliseconds(100)});
    c.add({"vgbl://wiki/motherboard", "Motherboard",
           "The main printed circuit board connecting all computer parts.",
           milliseconds(100)});
    c.add({"vgbl://wiki/umbrella", "Umbrella",
           "A canopy on a pole, used as protection against rain or sunlight.",
           milliseconds(80)});
    c.add({"vgbl://wiki/recycling", "Recycling",
           "Processing used materials into new products.", milliseconds(140)});
    c.add({"vgbl://shop/parts", "Parts market",
           "Electronic components and spare parts for sale.", milliseconds(200)});
    return c;
  }();
  return pages;
}

}  // namespace vgbl
