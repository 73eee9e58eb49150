// Runtime UI model: the inventory window, message popups, image popups and
// score display that surround the video area (paper Fig.2). Pure state —
// the compositor rasterises it, the ASCII renderer prints it, and the
// session mutates it.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "util/geometry.hpp"
#include "util/sim_clock.hpp"
#include "util/text.hpp"
#include "util/types.hpp"

namespace vgbl {

/// Screen layout: video area plus the chrome around it. All rects are in
/// output-canvas coordinates; the video area origin is (0,0) so object
/// placements (authored in video coordinates) map directly.
struct UiLayout {
  Size canvas;            // full window
  Rect video_area;        // where the video frame is drawn
  Rect inventory_window;  // right-hand backpack panel (drag target)
  Rect message_area;      // bottom text bar
  Rect status_bar;        // top: title + score

  /// Default layout for a given video size: video top-left, inventory
  /// column on the right, message bar under the video.
  static UiLayout standard(Size video);
};

struct MessageBox {
  std::string text;
  MicroTime shown_at = 0;
  /// Auto-dismiss after this long; 0 keeps it until replaced/dismissed.
  MicroTime timeout = 0;
};

struct ImagePopup {
  std::string icon;  // Sprite::icon name
  MicroTime shown_at = 0;
};

/// One line of the dialogue overlay.
struct DialogueView {
  std::string speaker;
  std::string line;
  std::vector<std::string> choices;  // empty = "click to continue"
};

/// The quiz overlay: one question at a time.
struct QuizView {
  std::string quiz_name;
  std::string prompt;
  std::vector<std::string> options;
  size_t question_number = 1;
  size_t total_questions = 1;
};

/// An optional overlay whose storage outlives dismissal: showing the next
/// one assigns into the strings and vectors the last one left, so a
/// steady stream of popups stops allocating once capacities settle. Reads
/// like std::optional.
template <typename T>
class Overlay {
 public:
  [[nodiscard]] bool has_value() const { return shown_; }
  explicit operator bool() const { return shown_; }
  const T& operator*() const { return value_; }
  const T* operator->() const { return &value_; }

  /// Marks the overlay shown and returns its storage to fill in.
  T& show() {
    shown_ = true;
    return value_;
  }
  void reset() { shown_ = false; }

 private:
  T value_{};
  bool shown_ = false;
};

class UiState {
 public:
  explicit UiState(UiLayout layout) : layout_(layout) {}
  UiState() : UiState(UiLayout::standard({320, 240})) {}

  [[nodiscard]] const UiLayout& layout() const { return layout_; }

  /// Shows `pieces` back to back as one message.
  void show_message(std::initializer_list<std::string_view> pieces,
                    MicroTime now, MicroTime timeout = 0) {
    MessageBox& m = message_.show();
    m.text.clear();
    append_pieces(m.text, pieces);
    m.shown_at = now;
    m.timeout = timeout;
  }
  void dismiss_message() { message_.reset(); }
  /// Expires timed-out popups; called from the session tick.
  void update(MicroTime now);

  [[nodiscard]] const Overlay<MessageBox>& message() const { return message_; }

  void show_image(std::string_view icon, MicroTime now) {
    ImagePopup& i = image_.show();
    i.icon.assign(icon);
    i.shown_at = now;
  }
  void dismiss_image() { image_.reset(); }
  [[nodiscard]] const Overlay<ImagePopup>& image() const { return image_; }

  /// Shows the dialogue overlay; the caller fills in the returned view.
  DialogueView& show_dialogue() { return dialogue_.show(); }
  void hide_dialogue() { dialogue_.reset(); }
  [[nodiscard]] const Overlay<DialogueView>& dialogue() const {
    return dialogue_;
  }

  /// Shows the quiz overlay; the caller fills in the returned view.
  QuizView& show_quiz() { return quiz_.show(); }
  void hide_quiz() { quiz_.reset(); }
  [[nodiscard]] const Overlay<QuizView>& quiz() const { return quiz_; }

  /// True when `p` lands in the inventory window (the drag-to-backpack
  /// target test).
  [[nodiscard]] bool in_inventory_window(Point p) const {
    return layout_.inventory_window.contains(p);
  }

 private:
  UiLayout layout_;
  Overlay<MessageBox> message_;
  Overlay<ImagePopup> image_;
  Overlay<DialogueView> dialogue_;
  Overlay<QuizView> quiz_;
};

}  // namespace vgbl
